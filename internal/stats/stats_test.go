package stats

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
)

func buildStats(t *testing.T) (*Stats, *corpus.World) {
	t.Helper()
	w := corpus.NewWorld(corpus.SmallConfig())
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
	return st, w
}

func TestPriorsAreProbabilities(t *testing.T) {
	st, w := buildStats(t)
	// For each entity name, the prior of the entity given its own name
	// must be positive; priors over candidates sum to <= 1.
	checked := 0
	for _, id := range w.Order {
		e := w.Entity(id)
		if e.Emerging {
			continue
		}
		cands := st.Candidates(e.Name)
		if len(cands) == 0 {
			continue
		}
		sum := 0.0
		for cid := range cands {
			p := st.Prior(e.Name, cid)
			if p < 0 || p > 1 {
				t.Fatalf("prior(%q, %s) = %f out of range", e.Name, cid, p)
			}
			sum += p
		}
		if sum > 1.0001 {
			t.Fatalf("priors for %q sum to %f", e.Name, sum)
		}
		checked++
	}
	if checked < 10 {
		t.Errorf("only %d entities had anchor priors", checked)
	}
}

func TestSelfNamePriorDominates(t *testing.T) {
	st, w := buildStats(t)
	// The full unique name of a prominent entity should resolve to it.
	id := w.EntitiesOfType("ACTOR")[0]
	e := w.Entity(id)
	p := st.Prior(e.Name, id)
	if p < 0.5 {
		t.Errorf("prior(%q, %s) = %f, want > 0.5", e.Name, id, p)
	}
}

func TestCoherenceBounds(t *testing.T) {
	st, w := buildStats(t)
	ids := w.EntitiesOfType("PERSON")
	if len(ids) < 2 {
		t.Skip("not enough entities")
	}
	a, b := ids[0], ids[1]
	// Self-coherence is 1 for entities with context vectors.
	if len(st.ContextVector(a).Terms) > 0 {
		if c := st.Coherence(a, a); math.Abs(c-1) > 1e-9 {
			t.Errorf("self-coherence = %f", c)
		}
	}
	c := st.Coherence(a, b)
	if c < 0 || c > 1 {
		t.Errorf("coherence out of range: %f", c)
	}
	if st.Coherence(a, b) != st.Coherence(b, a) {
		t.Error("coherence not symmetric")
	}
	if st.Coherence(a, "no_such_entity") != 0 {
		t.Error("coherence with unknown entity should be 0")
	}
}

func TestSentenceSimilarity(t *testing.T) {
	st, w := buildStats(t)
	id := w.EntitiesOfType("ACTOR")[0]
	gd := w.Article(id, false)
	if len(gd.Doc.Sentences) == 0 {
		t.Skip("empty article")
	}
	vec := st.SentenceVector(&gd.Doc.Sentences[0])
	if vec.Sum <= 0 || len(vec.Terms) == 0 {
		t.Fatal("empty sentence vector")
	}
	sim := st.Similarity(vec, id)
	if sim <= 0 || sim > 1 {
		t.Errorf("similarity = %f, want (0, 1]", sim)
	}
	// Similarity with an unrelated award entity should be lower.
	other := w.EntitiesOfType("AWARD")[0]
	if st.Similarity(vec, other) >= sim {
		t.Errorf("unrelated similarity %f >= own %f",
			st.Similarity(vec, other), sim)
	}
}

func TestTypeSignatures(t *testing.T) {
	st, w := buildStats(t)
	_ = w
	// "marry" between two persons must have been observed.
	ts := st.TypeSignature([]string{"PERSON"}, []string{"PERSON"}, "marry")
	if ts <= 0 {
		t.Error("marry PERSON-PERSON signature is zero")
	}
	// It should be stronger than marry between locations.
	wrong := st.TypeSignature([]string{"LOCATION"}, []string{"LOCATION"}, "marry")
	if wrong >= ts {
		t.Errorf("marry LOC-LOC %f >= PERSON-PERSON %f", wrong, ts)
	}
	if !st.HasPattern("marry") {
		t.Error("HasPattern(marry) = false")
	}
	if st.HasPattern("xyzzy frobnicate") {
		t.Error("HasPattern of nonsense pattern")
	}
}

func TestTypeSignatureDiscriminatesCityVsClub(t *testing.T) {
	st, _ := buildStats(t)
	// "sign for" should prefer FOOTBALL_CLUB objects over CITY objects
	// (the Liverpool disambiguation case of §7.1).
	club := st.TypeSignature([]string{"FOOTBALLER", "ATHLETE", "PERSON"}, []string{"FOOTBALL_CLUB", "ORGANIZATION"}, "sign for")
	city := st.TypeSignature([]string{"FOOTBALLER", "ATHLETE", "PERSON"}, []string{"CITY", "LOCATION"}, "sign for")
	if club == 0 {
		t.Skip("sign for not observed in this small world")
	}
	if city > club {
		t.Errorf("sign for CITY %f > CLUB %f", city, club)
	}
}

// TestBuildIsDeterministic builds the statistics twice from the same
// corpus and requires every context vector, its sum included, to be
// bit-identical. Go
// randomizes map iteration per loop, so a sum added in map order differs
// in its last bits between two builds — and between two processes,
// which then disagree on a near-tied disambiguation.
func TestBuildIsDeterministic(t *testing.T) {
	a, w := buildStats(t)
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	b := Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
	if len(a.ctx) != len(b.ctx) {
		t.Fatalf("%d vs %d context vectors", len(a.ctx), len(b.ctx))
	}
	for id, va := range a.ctx {
		vb := b.ctx[id]
		if math.Float64bits(va.Sum) != math.Float64bits(vb.Sum) {
			t.Errorf("%s: context sum %v vs %v", id, va.Sum, vb.Sum)
		}
		if !slices.Equal(va.Terms, vb.Terms) || !slices.Equal(va.Weights, vb.Weights) {
			t.Errorf("%s: context vectors differ", id)
		}
	}
}

// TestParallelBuildMatchesSerial: Build annotates documents on every core
// and counts their type signatures after, in document order. The result —
// priors, context vectors and type signatures — equals a build on one
// core, field for field.
func TestParallelBuildMatchesSerial(t *testing.T) {
	w := corpus.NewWorld(corpus.SmallConfig())
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	build := func(procs int) *Stats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
	}
	serial, par := build(1), build(4)
	if len(serial.typeSig) == 0 || len(serial.anchorCount) == 0 || len(serial.ctx) == 0 {
		t.Fatal("serial build counted nothing")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel Build differs from a serial one")
	}
}
