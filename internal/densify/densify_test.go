package densify

import (
	"runtime"
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/graph"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/stats"
)

type fixture struct {
	world *corpus.World
	stats *stats.Stats
	pipe  *clause.Pipeline
}

var fx *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if fx == nil {
		w := corpus.NewWorld(corpus.SmallConfig())
		pipe := clause.NewPipeline(w.Repo, depparse.Malt)
		st := stats.Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
		fx = &fixture{world: w, stats: st, pipe: pipe}
	}
	return fx
}

func (f *fixture) densify(t *testing.T, text string, params Params) (*graph.Graph, *Result, *nlp.Document) {
	t.Helper()
	doc := &nlp.Document{ID: "test", Text: text}
	cls := f.pipe.AnnotateDocument(doc)
	g := graph.NewBuilder(f.world.Repo).Build(doc, cls)
	scorer := NewScorer(f.stats, f.world.Repo, params, doc)
	res := Densify(g, scorer)
	return g, res, doc
}

func TestConstraintsSatisfied(t *testing.T) {
	f := getFixture(t)
	// Build an article text with plenty of mentions.
	id := f.world.EntitiesOfType("ACTOR")[0]
	gd := f.world.Article(id, false)
	_, res, _ := f.densify(t, gd.Doc.Text, DefaultParams())
	// Constraint (1): at most one assignment per NP (map semantics give
	// this); confidence bounds.
	for np, conf := range res.Confidence {
		if conf <= 0 || conf > 1.0001 {
			t.Errorf("confidence of node %d = %f", np, conf)
		}
	}
	// Constraint (2): antecedent map has one entry per pronoun.
	for p, ant := range res.Antecedent {
		if ant < 0 {
			t.Errorf("pronoun %d has negative antecedent", p)
		}
	}
}

func TestDocSubjectResolved(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("ACTOR")[0]
	gd := f.world.Article(id, false)
	g, res, _ := f.densify(t, gd.Doc.Text, DefaultParams())
	// The article's subject full-name mention must resolve to the entity.
	found := false
	for np, ent := range res.Assignment {
		if g.Nodes[np].Text == f.world.Entity(id).Name && ent == id {
			found = true
		}
	}
	if !found {
		t.Errorf("article subject %s not resolved to itself", id)
	}
}

func TestPronounResolvesToSubject(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("ACTOR")[0]
	name := f.world.Entity(id).Name
	text := name + " is an actor. He won a major award."
	g, res, _ := f.densify(t, text, DefaultParams())
	if len(res.Antecedent) != 1 {
		t.Fatalf("antecedents = %v", res.Antecedent)
	}
	for _, ant := range res.Antecedent {
		if g.Nodes[ant].Text != name {
			t.Errorf("pronoun resolved to %q", g.Nodes[ant].Text)
		}
	}
}

func TestGenderConstraint(t *testing.T) {
	f := getFixture(t)
	// Find a female person; "He" must not resolve to her.
	var name string
	for _, pid := range f.world.EntitiesOfType("PERSON") {
		e := f.world.Entity(pid)
		if e.Gender == nlp.GenderFemale && !e.Emerging {
			name = e.Name
			break
		}
	}
	text := name + " is famous. He won a major award."
	g, res, _ := f.densify(t, text, DefaultParams())
	for _, ant := range res.Antecedent {
		if g.Nodes[ant].Text == name {
			t.Errorf("male pronoun resolved to female entity %q", name)
		}
	}
}

func TestSurnameDisambiguatedByCluster(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("ACTOR")[0]
	e := f.world.Entity(id)
	last := e.Aliases[0] // surname alias
	text := e.Name + " is an actor. " + last + " won a major award."
	g, res, _ := f.densify(t, text, DefaultParams())
	for np, ent := range res.Assignment {
		if g.Nodes[np].Text == last && ent != id {
			t.Errorf("surname %q resolved to %s, want %s", last, ent, id)
		}
	}
}

func TestTextConflictSplitsChains(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("ACTOR")[0]
	e := f.world.Entity(id)
	last := e.Aliases[0]
	other := "Zephram " + last // unknown full name sharing the surname
	text := e.Name + " is an actor. " + last + " met " + other + " yesterday."
	g, res, _ := f.densify(t, text, DefaultParams())
	for np, ent := range res.Assignment {
		if g.Nodes[np].Text == other && ent == id {
			t.Errorf("incompatible name %q merged into %s", other, id)
		}
	}
	_ = res
}

func TestPipelineMode(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("ACTOR")[0]
	gd := f.world.Article(id, false)
	params := DefaultParams()
	params.PipelineMode = true
	params.UseTypeSignatures = false
	_, res, _ := f.densify(t, gd.Doc.Text, params)
	if len(res.Assignment) == 0 {
		t.Error("pipeline mode produced no assignments")
	}
}

func TestObjectiveNonNegative(t *testing.T) {
	f := getFixture(t)
	id := f.world.EntitiesOfType("PERSON")[0]
	gd := f.world.Article(id, false)
	_, res, _ := f.densify(t, gd.Doc.Text, DefaultParams())
	if res.Objective < 0 {
		t.Errorf("objective = %f", res.Objective)
	}
}

func TestTextConflictHelper(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"Gwendolyn Ashcombe", "Adrien Ashcombe", true},
		{"Brad Pitt", "Pitt", false},
		{"Pitt", "Pitt", false},
		{"Brad Pitt", "Brad Pitt", false},
		{"William Alvin Pitt", "Brad Pitt", true},
	}
	for _, tt := range tests {
		if got := TextConflict(tt.a, tt.b); got != tt.want {
			t.Errorf("TextConflict(%q, %q) = %v", tt.a, tt.b, got)
		}
	}
}

// scaledWorld is the default world with every population multiplied by
// scale, as the benchmark's daemon builds it: at scale 8 up to eight
// entities share a name, and their candidate weights tie.
type scaledWorld struct {
	world *corpus.World
	stats *stats.Stats
	pipe  *clause.Pipeline
}

var scaled = map[int]*scaledWorld{}

func getScaledWorld(tb testing.TB, scale int) *scaledWorld {
	tb.Helper()
	if sw := scaled[scale]; sw != nil {
		return sw
	}
	c := corpus.DefaultConfig()
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= scale
	}
	w := corpus.NewWorld(c)
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	sw := &scaledWorld{world: w, pipe: pipe, stats: stats.Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)}
	scaled[scale] = sw
	return sw
}

// graphs annotates the first n wiki documents of the world and builds
// their semantic graphs.
func (sw *scaledWorld) graphs(n int) ([]*graph.Graph, []*nlp.Document) {
	docs := corpus.Docs(sw.world.WikiDataset(n))
	b := graph.NewBuilder(sw.world.Repo)
	gs := make([]*graph.Graph, len(docs))
	for i, doc := range docs {
		gs[i] = b.Build(doc, sw.pipe.AnnotateDocument(doc))
	}
	return gs, docs
}

// TestDensifyIsDeterministic densifies each document twice, once with a
// fresh scratch and scorer and once with a reused pair, and requires the
// same removals and a bit-identical Result. The first 300 wiki documents
// of the world scaled x8 are the smallest set found on which a solver
// that adds its weights in map order fails this in every run (20 of 20:
// each run a few of those documents resolve a near-tie differently); at
// 200 documents it failed 8 runs of 10, at scale 1 none.
func TestDensifyIsDeterministic(t *testing.T) {
	sw := getScaledWorld(t, 8)
	gs, docs := sw.graphs(300)
	reused := NewScratch()
	var scorer *Scorer
	for i, g := range gs {
		fresh := solve(g, NewScorer(sw.stats, sw.world.Repo, DefaultParams(), docs[i]), NewScratch())
		if scorer == nil {
			scorer = NewScorer(sw.stats, sw.world.Repo, DefaultParams(), docs[i])
		} else {
			scorer.Reset(docs[i])
		}
		if d := solve(g, scorer, reused).diff(fresh); d != "" {
			t.Errorf("%s: reused scratch: %s", docs[i].ID, d)
		}
	}
}

// BenchmarkDensify times the densify stage — the scorer's per-document
// reset plus the solver — over the graphs of the first 300 wiki documents
// of the world scaled x8, with one reused scorer and scratch as an engine
// worker runs them.
func BenchmarkDensify(b *testing.B) {
	sw := getScaledWorld(b, 8)
	gs, docs := sw.graphs(300)
	scorer := NewScorer(sw.stats, sw.world.Repo, DefaultParams(), docs[0])
	sc := NewScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			clearRemoved(g)
			scorer.Reset(docs[j])
			DensifyScratch(g, scorer, sc)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(gs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/doc")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/doc")
}
