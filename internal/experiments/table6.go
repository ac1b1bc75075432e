package experiments

import (
	"fmt"
	"strings"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/eval"
	"qkbfly/internal/kb/store"
)

// Table6Cell is one (dataset, algorithm) measurement.
type Table6Cell struct {
	Method       string
	Precision    float64
	CI           float64
	Extractions  int
	AvgPerDocSec float64
}

// Table6Dataset groups the two algorithms on one dataset.
type Table6Dataset struct {
	Name        string
	Docs        int
	EmergingPct float64 // share of extracted entities that are out-of-KB
	Greedy      Table6Cell
	ILP         Table6Cell
	// TTestP is the paired t-test p-value over per-document precision.
	TTestP float64
}

// Table6Result reproduces the graph-algorithm comparison of §7.2.
type Table6Result struct {
	Datasets []Table6Dataset
}

// RunTable6 compares the greedy densest-subgraph algorithm against the
// exact ILP on the three datasets of §7.2 (Wikipedia-style, news-style,
// Wikia-style fiction).
func RunTable6(env *Env, wikiDocs, newsPerEvent, wikiaPages, sampleSize int) *Table6Result {
	res := &Table6Result{}
	datasets := []struct {
		name string
		gen  func() []*corpus.GenDoc
	}{
		{"DEFIE-Wikipedia", func() []*corpus.GenDoc { return env.World.WikiDataset(wikiDocs) }},
		{"News", func() []*corpus.GenDoc { return env.World.NewsDataset(newsPerEvent) }},
		{"Wikia", func() []*corpus.GenDoc { return env.World.WikiaDataset(wikiaPages) }},
	}
	for di, ds := range datasets {
		entry := Table6Dataset{Name: ds.name, Docs: len(ds.gen())}
		var perDocGreedy, perDocILP []float64
		for ai, alg := range []qkbfly.Algorithm{qkbfly.Greedy, qkbfly.ILP} {
			gdocs := ds.gen()
			sys := env.System(qkbfly.Joint, alg)
			kb, bs := sys.BuildKB(corpus.Docs(gdocs))
			a := env.Assessor.Assess(kb.Facts(), sampleSize, int64(600+10*di+ai))
			cell := Table6Cell{
				Method:       []string{"QKBfly", "QKBfly-ilp"}[ai],
				Precision:    a.Precision,
				CI:           a.CI,
				Extractions:  kb.Len(),
				AvgPerDocSec: bs.Elapsed.Seconds() / float64(bs.Documents),
			}
			perDoc := perDocPrecision(env, kb, gdocs)
			if ai == 0 {
				entry.Greedy = cell
				perDocGreedy = perDoc
				entry.EmergingPct = emergingShare(kb)
			} else {
				entry.ILP = cell
				perDocILP = perDoc
			}
		}
		n := len(perDocGreedy)
		if len(perDocILP) < n {
			n = len(perDocILP)
		}
		entry.TTestP = eval.PairedTTest(perDocGreedy[:n], perDocILP[:n])
		res.Datasets = append(res.Datasets, entry)
	}
	return res
}

// perDocPrecision computes the oracle precision of each document's facts
// (for the paired t-test).
func perDocPrecision(env *Env, kb *store.KB, gdocs []*corpus.GenDoc) []float64 {
	byDoc := map[string][]store.Fact{}
	for _, f := range kb.Facts() {
		byDoc[f.Source.DocID] = append(byDoc[f.Source.DocID], f)
	}
	var out []float64
	for _, gd := range gdocs {
		facts := byDoc[gd.Doc.ID]
		if len(facts) == 0 {
			continue
		}
		correct := 0
		for i := range facts {
			if env.Assessor.Correct(&facts[i]) {
				correct++
			}
		}
		out = append(out, float64(correct)/float64(len(facts)))
	}
	return out
}

// emergingShare is the fraction of KB entities that are out-of-repository.
func emergingShare(kb *store.KB) float64 {
	total := kb.EntityCount()
	if total == 0 {
		return 0
	}
	return float64(kb.EmergingCount()) / float64(total)
}

// String renders Table 6.
func (r *Table6Result) String() string {
	var b strings.Builder
	b.WriteString("Table 6: graph algorithms (greedy vs ILP)\n")
	header := []string{"Dataset", "Method", "Precision", "#Extract.", "ms/doc", "out-of-KB", "t-test p"}
	var rows [][]string
	for _, ds := range r.Datasets {
		for i, c := range []Table6Cell{ds.Greedy, ds.ILP} {
			name, emerging, tp := "", "", ""
			if i == 0 {
				name = ds.Name
				emerging = fmt.Sprintf("%.0f%%", 100*ds.EmergingPct)
				tp = fmt.Sprintf("%.3f", ds.TTestP)
			}
			rows = append(rows, []string{
				name, c.Method, pm(c.Precision, c.CI),
				fmt.Sprintf("%d", c.Extractions),
				fmt.Sprintf("%.2f", c.AvgPerDocSec*1000),
				emerging, tp,
			})
		}
	}
	b.WriteString(renderTable(header, rows))
	return b.String()
}
