package search

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/nlp"
)

// oracleIndex is the map-based BM25 index the flat postings replaced,
// kept as the reference Search must match bit for bit: postings as
// term -> document -> frequency, every hit scored into a map and the
// whole hit list sorted.
type oracleIndex struct {
	docs     []*nlp.Document
	lengths  []int
	avgLen   float64
	postings map[string]map[int]int
	titles   map[string]int
}

func newOracle(docs []*nlp.Document) *oracleIndex {
	idx := &oracleIndex{
		docs:     docs,
		postings: make(map[string]map[int]int),
		titles:   make(map[string]int),
	}
	total := 0
	for di, doc := range docs {
		terms := docTerms(doc)
		idx.lengths = append(idx.lengths, len(terms))
		total += len(terms)
		for _, t := range terms {
			m := idx.postings[t]
			if m == nil {
				m = map[int]int{}
				idx.postings[t] = m
			}
			m[di]++
		}
		idx.titles[normalize(doc.Title)] = di
	}
	if len(docs) > 0 {
		idx.avgLen = float64(total) / float64(len(docs))
	}
	return idx
}

func (idx *oracleIndex) Search(query string, k int, source string) []Result {
	terms := tokenize(query)
	scores := map[int]float64{}
	n := float64(len(idx.docs))
	for _, t := range terms {
		post := idx.postings[t]
		if len(post) == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(len(post))+0.5)/(float64(len(post))+0.5))
		for di, tf := range post {
			dl := float64(idx.lengths[di])
			den := float64(tf) + k1*(1-b+b*dl/idx.avgLen)
			scores[di] += idf * float64(tf) * (k1 + 1) / den
		}
	}
	if di, ok := idx.titles[normalize(query)]; ok {
		scores[di] += 100
	}
	var out []Result
	for di, s := range scores {
		if source != "" && idx.docs[di].Source != source {
			continue
		}
		out = append(out, Result{Doc: idx.docs[di], Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc.ID < out[j].Doc.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// scaledIndex is the collection cmd/qkbflyd indexes (background corpus
// plus three news articles per event), over the default world (seed 1)
// scaled x8, with the distinct names of its repository entities.
type scaledIndex struct {
	docs  []*nlp.Document
	idx   *Index
	names []string
}

var scaledOnce = sync.OnceValue(func() *scaledIndex {
	c := corpus.DefaultConfig()
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= 8
	}
	w := corpus.NewWorld(c)
	docs := corpus.Docs(append(w.BackgroundCorpus(), w.NewsDataset(3)...))
	si := &scaledIndex{docs: docs, idx: New(docs)}
	seen := map[string]bool{}
	for _, id := range w.Order {
		if e := w.Entities[id]; !e.Emerging && !seen[e.Name] {
			seen[e.Name] = true
			si.names = append(si.names, e.Name)
		}
	}
	sort.Strings(si.names)
	return si
})

// sameHits reports the first difference between two hit lists, or "".
func sameHits(got, want []Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("hit %d = %s %v, want %s %v",
				i, got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
	return ""
}

// TestSearchOracle requires Search to return the reference's documents,
// in its order, with bit-identical scores, for every repository entity
// name of the x8 world, from every source and at k = 1, 8 and 10000. The
// reference sorts every hit and then truncates, so its answer at k = 1 or
// 8 is a prefix of its answer at 10000 (document IDs are unique, so the
// order is total); it is asked once per query.
func TestSearchOracle(t *testing.T) {
	si := scaledOnce()
	oracle := newOracle(si.docs)
	for _, source := range []string{"", "wikipedia", "news"} {
		for _, name := range si.names {
			want := oracle.Search(name, 10000, source)
			for _, k := range []int{1, 8, 10000} {
				if diff := sameHits(si.idx.Search(name, k, source), want[:min(k, len(want))]); diff != "" {
					t.Fatalf("Search(%q, %d, %q): %s", name, k, source, diff)
				}
			}
		}
	}
}

// TestSearchConcurrent runs distinct queries on one Index from eight
// goroutines (each with its own pooled scratch) and requires each answer
// to equal the serial one.
func TestSearchConcurrent(t *testing.T) {
	si := scaledOnce()
	const workers = 8
	names := si.names[:min(len(si.names), 400)]
	want := make([][]Result, len(names))
	for i, name := range names {
		want[i] = si.idx.Search(name, 8, "")
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				if diff := sameHits(si.idx.Search(names[i], 8, ""), want[i]); diff != "" {
					t.Errorf("Search(%q) concurrently: %s", names[i], diff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSearch times one top-8 query per repository entity name of
// the x8 world; it reports microseconds per query.
func BenchmarkSearch(b *testing.B) {
	si := scaledOnce()
	queries := 0
	for b.Loop() {
		for _, name := range si.names {
			si.idx.Search(name, 8, "")
		}
		queries += len(si.names)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(queries), "us/query")
}
