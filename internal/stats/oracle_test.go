package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/intern"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
)

// oracleStats is the string-keyed context-vector model the sorted sparse
// Vector replaced, kept as the reference Coherence and Similarity must
// match bit for bit: every vector a term -> weight map, overlaps summed
// after sorting the matched minima.
type oracleStats struct {
	ctx    map[string]map[string]float64
	ctxSum map[string]float64
	df     map[string]int
	nDocs  int
}

func newOracleStats(docs []*nlp.Document) *oracleStats {
	s := &oracleStats{
		ctx:    make(map[string]map[string]float64),
		ctxSum: make(map[string]float64),
		df:     make(map[string]int),
		nDocs:  len(docs),
	}
	type termCounts struct {
		counts map[string]int
		terms  []string
	}
	tf := make(map[string]termCounts, len(docs))
	for _, doc := range docs {
		entityID := docEntity(doc)
		if len(doc.Sentences) == 0 {
			continue
		}
		tc := termCounts{counts: map[string]int{}}
		for i := range doc.Sentences {
			for _, t := range doc.Sentences[i].Tokens {
				w := intern.Lower(t.Text)
				if stopwords[w] || len(w) < 2 || !isWordLike(w) {
					continue
				}
				if tc.counts[w] == 0 {
					tc.terms = append(tc.terms, w)
				}
				tc.counts[w]++
			}
		}
		for _, w := range tc.terms {
			s.df[w]++
		}
		if entityID != "" {
			tf[entityID] = tc
		}
	}
	for entityID, tc := range tf {
		vec := make(map[string]float64, len(tc.terms))
		sum := 0.0
		for _, w := range tc.terms {
			idf := math.Log(float64(s.nDocs+1) / float64(s.df[w]+1))
			v := float64(tc.counts[w]) * idf
			vec[w] = v
			sum += v
		}
		s.ctx[entityID] = vec
		s.ctxSum[entityID] = sum
	}
	return s
}

func (s *oracleStats) SentenceVector(sent *nlp.Sentence) (map[string]float64, float64) {
	vec := map[string]float64{}
	sum := 0.0
	for _, t := range sent.Tokens {
		w := intern.Lower(t.Text)
		if stopwords[w] || len(w) < 2 || !isWordLike(w) {
			continue
		}
		idf := math.Log(float64(s.nDocs+1) / float64(s.df[w]+1))
		vec[w] += idf
		sum += idf
	}
	return vec, sum
}

func (s *oracleStats) Similarity(vec map[string]float64, vecSum float64, entityID string) float64 {
	evec := s.ctx[entityID]
	if evec == nil || vecSum == 0 {
		return 0
	}
	overlap := mapOverlap(vec, evec)
	den := math.Min(vecSum, s.ctxSum[entityID])
	if den == 0 {
		return 0
	}
	return clamp01(overlap / den)
}

func (s *oracleStats) Coherence(e1, e2 string) float64 {
	v1, v2 := s.ctx[e1], s.ctx[e2]
	if v1 == nil || v2 == nil {
		return 0
	}
	if len(v2) < len(v1) {
		v1, v2 = v2, v1
		e1, e2 = e2, e1
	}
	overlap := mapOverlap(v1, v2)
	den := math.Min(s.ctxSum[e1], s.ctxSum[e2])
	if den == 0 {
		return 0
	}
	return clamp01(overlap / den)
}

func mapOverlap(a, b map[string]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var terms []float64
	for w, av := range a {
		if bv, ok := b[w]; ok {
			terms = append(terms, math.Min(av, bv))
		}
	}
	sort.Float64s(terms)
	overlap := 0.0
	for _, t := range terms {
		overlap += t
	}
	return overlap
}

// oracleWorld is the default world (seed 1) scaled x8, where up to eight
// entities share a name, with its context statistics built both ways.
type oracleWorld struct {
	w      *corpus.World
	st     *Stats
	oracle *oracleStats
}

var oracleWorldOnce = sync.OnceValue(func() *oracleWorld {
	c := corpus.DefaultConfig()
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= 8
	}
	w := corpus.NewWorld(c)
	docs := corpus.Docs(w.BackgroundCorpus())
	return &oracleWorld{w: w, st: Build(docs, w.Repo, nil), oracle: newOracleStats(docs)}
})

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStatsOracle requires Coherence and Similarity to equal the
// map-based reference bit for bit: Coherence on 10^5 seeded entity pairs
// (emerging entities, which have no article, included), every self-pair
// and unknown IDs; Similarity on every sentence of the first 300 wiki
// documents against every repository candidate of each of its mentions.
func TestStatsOracle(t *testing.T) {
	ow := oracleWorldOnce()
	ids := append(append([]string(nil), ow.w.Order...), "no_such_entity")
	coh := func(a, b string) {
		if got, want := ow.st.Coherence(a, b), ow.oracle.Coherence(a, b); !sameBits(got, want) {
			t.Fatalf("Coherence(%s, %s) = %v, want %v", a, b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		coh(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
	}
	for _, id := range ids {
		coh(id, id)
	}

	pipe := clause.NewPipeline(ow.w.Repo, depparse.Malt)
	compared := 0
	for _, doc := range corpus.Docs(ow.w.WikiDataset(300)) {
		pipe.AnnotateDocument(doc)
		for si := range doc.Sentences {
			sent := &doc.Sentences[si]
			vec := ow.st.SentenceVector(sent)
			ovec, osum := ow.oracle.SentenceVector(sent)
			if !sameBits(vec.Sum, osum) || len(vec.Terms) > len(ovec) {
				t.Fatalf("%s sentence %d: vector sum %v over %d terms, want %v over at most %d",
					doc.ID, si, vec.Sum, len(vec.Terms), osum, len(ovec))
			}
			for _, m := range sent.Mentions {
				for _, c := range ow.w.Repo.Candidates(sent.TokenText(m.Start, m.End)) {
					if got, want := ow.st.Similarity(vec, c), ow.oracle.Similarity(ovec, osum, c); !sameBits(got, want) {
						t.Fatalf("%s sentence %d: Similarity(%s) = %v, want %v", doc.ID, si, c, got, want)
					}
					compared++
				}
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d similarities compared", compared)
	}
	t.Logf("%d similarities compared", compared)
}

// BenchmarkCoherence times Coherence on seeded pairs of x8-world entities
// that both have a context vector; it reports nanoseconds per pair.
func BenchmarkCoherence(b *testing.B) {
	ow := oracleWorldOnce()
	var ids []string
	for _, id := range ow.w.Order {
		if _, ok := ow.st.ctx[id]; ok {
			ids = append(ids, id)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]string, 4096)
	for i := range pairs {
		pairs[i] = [2]string{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	i := 0
	for b.Loop() {
		p := pairs[i%len(pairs)]
		ow.st.Coherence(p[0], p[1])
		i++
	}
}
