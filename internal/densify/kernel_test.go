package densify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/graph"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/stats"
)

// outcome is a Result copied out of its scratch, with every float as its
// bits, plus the removal sequence and the graph's removed edges.
type outcome struct {
	assignment map[int]string
	antecedent map[int]int
	confidence map[int]uint64
	removed    int
	objective  uint64
	order      []int
	cut        []int
}

func snapshot(g *graph.Graph, r *Result, order []int) outcome {
	o := outcome{
		assignment: map[int]string{}, antecedent: map[int]int{}, confidence: map[int]uint64{},
		removed: r.Removed, objective: math.Float64bits(r.Objective),
		order: append([]int{}, order...),
	}
	for k, v := range r.Assignment {
		o.assignment[k] = v
	}
	for k, v := range r.Antecedent {
		o.antecedent[k] = v
	}
	for k, v := range r.Confidence {
		o.confidence[k] = math.Float64bits(v)
	}
	for _, e := range g.Edges {
		if e.Removed {
			o.cut = append(o.cut, e.ID)
		}
	}
	return o
}

// diff describes the first difference between two outcomes, or is empty.
func (o outcome) diff(want outcome) string {
	switch {
	case !slices.Equal(o.order, want.order):
		return fmt.Sprintf("removal order %v, want %v", o.order, want.order)
	case !slices.Equal(o.cut, want.cut):
		return fmt.Sprintf("removed edges %v, want %v", o.cut, want.cut)
	case o.removed != want.removed:
		return fmt.Sprintf("Removed %d, want %d", o.removed, want.removed)
	case o.objective != want.objective:
		return fmt.Sprintf("Objective %v, want %v",
			math.Float64frombits(o.objective), math.Float64frombits(want.objective))
	case fmt.Sprint(o.assignment) != fmt.Sprint(want.assignment):
		return fmt.Sprintf("Assignment %v, want %v", o.assignment, want.assignment)
	case fmt.Sprint(o.antecedent) != fmt.Sprint(want.antecedent):
		return fmt.Sprintf("Antecedent %v, want %v", o.antecedent, want.antecedent)
	case fmt.Sprint(o.confidence) != fmt.Sprint(want.confidence):
		return fmt.Sprintf("Confidence bits %v, want %v", o.confidence, want.confidence)
	}
	return ""
}

func clearRemoved(g *graph.Graph) {
	for _, e := range g.Edges {
		e.Removed = false
	}
}

// solve densifies g through sc and returns the outcome; the graph's
// removed flags are cleared again afterwards.
func solve(g *graph.Graph, scorer *Scorer, sc *Scratch) outcome {
	res := DensifyScratch(g, scorer, sc)
	o := snapshot(g, res, sc.st.removed)
	if scorer.Params.PipelineMode {
		o.order = nil
	}
	clearRemoved(g)
	return o
}

// checkOracle compares the solver against the reference solver on g.
func checkOracle(t *testing.T, name string, g *graph.Graph, scorer *Scorer, sc *Scratch) {
	t.Helper()
	got := solve(g, scorer, sc)
	res, order := refDensify(g, scorer)
	want := snapshot(g, res, order)
	clearRemoved(g)
	if d := got.diff(want); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// TestOracleOnDatasets runs the solver and the reference solver on every
// document of the default world's wiki, news and Wikia datasets, in the
// joint and pipeline configurations, and requires the same removals and
// a bit-identical Result.
func TestOracleOnDatasets(t *testing.T) {
	w := corpus.NewWorld(corpus.DefaultConfig())
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
	datasets := []struct {
		name string
		docs []*corpus.GenDoc
	}{
		{"wiki", w.WikiDataset(1 << 30)},
		{"news", w.NewsDataset(3)},
		{"wikia", w.WikiaDataset(w.Config.WikiaPages)},
	}
	b := graph.NewBuilder(w.Repo)
	sc := NewScratch()
	pipeline := DefaultParams()
	pipeline.PipelineMode, pipeline.UseTypeSignatures = true, false
	n := 0
	for _, ds := range datasets {
		for _, doc := range corpus.Docs(ds.docs) {
			g := b.Build(doc, pipe.AnnotateDocument(doc))
			checkOracle(t, ds.name+" "+doc.ID, g, NewScorer(st, w.Repo, DefaultParams(), doc), sc)
			checkOracle(t, ds.name+" "+doc.ID+" (pipeline)", g, NewScorer(st, w.Repo, pipeline, doc), sc)
			n++
		}
	}
	t.Logf("%d documents", n)
}

// TestOracleOnRandomGraphs compares the solver with the reference solver
// on seeded random graphs: pronouns linked to several antecedents and
// related to each other, gender-filtered links, pronoun-pronoun edges,
// repeated candidates and links, and sameAs groups whose members conflict
// by candidates or by name.
func TestOracleOnRandomGraphs(t *testing.T) {
	f := getFixture(t)
	sc := NewScratch()
	noTS := DefaultParams()
	noTS.UseTypeSignatures = false
	pipeline := noTS
	pipeline.PipelineMode = true
	for seed := int64(0); seed < 3000; seed++ {
		g, doc := randomGraph(rand.New(rand.NewSource(seed)), f)
		for _, p := range []Params{DefaultParams(), noTS, pipeline} {
			checkOracle(t, fmt.Sprintf("seed %d %+v", seed, p), g, NewScorer(f.stats, f.world.Repo, p, doc), sc)
		}
		if t.Failed() {
			return
		}
	}
}

// randomGraph builds a semantic graph over entities of the fixture world,
// with edges added in a shuffled order so that edge IDs do not follow
// node order.
func randomGraph(rng *rand.Rand, f *fixture) (*graph.Graph, *nlp.Document) {
	w := f.world
	var people, others []string
	for _, id := range w.Order {
		if e := w.Entities[id]; !e.Emerging {
			if e.Gender == nlp.GenderMale || e.Gender == nlp.GenderFemale {
				people = append(people, id)
			} else {
				others = append(others, id)
			}
		}
	}
	var pool []string
	for i := 0; i < 4+rng.Intn(6); i++ {
		pool = append(pool, people[rng.Intn(len(people))])
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		pool = append(pool, others[rng.Intn(len(others))])
	}
	// Surfaces: full names, bare surnames and invented full names sharing
	// a surname, which conflict textually with the real ones.
	var surfaces, words []string
	for _, id := range pool {
		e := w.Entity(id)
		surfaces = append(surfaces, e.Name)
		words = append(words, e.Name)
		if len(e.Aliases) > 0 {
			surfaces = append(surfaces, e.Aliases[0], "Zephram "+e.Aliases[0])
		}
	}
	doc := &nlp.Document{ID: "random"}
	nSent := 2 + rng.Intn(4)
	for i := 0; i < nSent; i++ {
		toks := []nlp.Token{{Text: "he"}, {Text: "she"}, {Text: "it"}, {Text: "they"}}
		for j := 0; j < 6; j++ {
			toks = append(toks, nlp.Token{Text: words[rng.Intn(len(words))]})
		}
		doc.Sentences = append(doc.Sentences, nlp.Sentence{Index: i, Tokens: toks})
	}
	g := graph.New(doc.ID)
	var nps, prons, mentions []int
	for i := 0; i < 3+rng.Intn(8); i++ {
		n := g.AddNode(graph.Node{Kind: graph.NounPhraseNode, SentIndex: rng.Intn(nSent),
			Head: 4 + rng.Intn(6), Text: surfaces[rng.Intn(len(surfaces))]})
		nps = append(nps, n.ID)
	}
	for i := 0; i < rng.Intn(5); i++ {
		n := g.AddNode(graph.Node{Kind: graph.PronounNode, SentIndex: rng.Intn(nSent), Head: rng.Intn(4)})
		prons = append(prons, n.ID)
	}
	mentions = append(append(mentions, nps...), prons...)
	ents := make([]int, len(pool))
	for i, id := range pool {
		ents[i] = g.NodeForEntity(id).ID
	}

	type plan struct {
		kind     graph.EdgeKind
		from, to int
		label    string
	}
	var plans []plan
	for _, np := range nps {
		for k := rng.Intn(5); k > 0; k-- {
			plans = append(plans, plan{kind: graph.MeansEdge, from: np, to: ents[rng.Intn(len(ents))]})
		}
	}
	for _, p := range prons {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			plans = append(plans, plan{kind: graph.SameAsEdge, from: p, to: nps[rng.Intn(len(nps))]})
		}
		// Now and then a pronoun-pronoun edge: the To end takes the From
		// end as an antecedent that offers no candidates.
		if q := prons[rng.Intn(len(prons))]; q != p && rng.Intn(4) == 0 {
			plans = append(plans, plan{kind: graph.SameAsEdge, from: p, to: q})
		}
	}
	for k := rng.Intn(len(nps) + 1); k > 0; k-- {
		a, b := nps[rng.Intn(len(nps))], nps[rng.Intn(len(nps))]
		if a != b {
			plans = append(plans, plan{kind: graph.SameAsEdge, from: min(a, b), to: max(a, b)})
		}
	}
	labels := []string{"play", "marry", "join", "win", "bear in", "found"}
	for k := 2 + rng.Intn(10); k > 0; k-- {
		a, b := mentions[rng.Intn(len(mentions))], mentions[rng.Intn(len(mentions))]
		if a != b {
			plans = append(plans, plan{kind: graph.RelationEdge, from: a, to: b, label: labels[rng.Intn(len(labels))]})
		}
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	for _, p := range plans {
		g.AddEdge(p.kind, p.from, p.to, p.label)
	}
	return g, doc
}
