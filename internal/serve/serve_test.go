package serve_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/search"
	"qkbfly/internal/serve"
	"qkbfly/internal/stats"
)

// ---------------------------------------------------------------------------
// Fake backend: deterministic shards, controllable blocking — lets the
// suite exercise singleflight, caching and cancellation without paying
// for real pipeline runs.
// ---------------------------------------------------------------------------

type fakeBackend struct {
	runs atomic.Int32 // BuildShardsContext invocations

	mu        sync.Mutex
	built     [][]string          // doc IDs of each build call, in call order
	docsFor   map[string][]string // query -> doc IDs; default: size docs derived from the query
	started   chan struct{}       // when non-nil, receives one signal per build start
	release   chan struct{}       // when non-nil, builds block until closed (or ctx done)
	cancelled chan struct{}       // when non-nil, receives one signal per cancelled build
	buildTime time.Duration       // fake per-doc pipeline time reported in stats
	byText    bool                // shard content from the document text (textShard), not its ID
}

func (f *fakeBackend) Retrieve(query, source string, size int) []*nlp.Document {
	f.mu.Lock()
	ids := f.docsFor[query]
	f.mu.Unlock()
	if ids == nil {
		for i := 0; i < size; i++ {
			ids = append(ids, fmt.Sprintf("%s#%d", query, i))
		}
	}
	docs := make([]*nlp.Document, 0, len(ids))
	for _, id := range ids {
		docs = append(docs, &nlp.Document{ID: id, Title: id})
	}
	return docs
}

func (f *fakeBackend) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	f.runs.Add(1)
	f.mu.Lock()
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	f.built = append(f.built, ids)
	started, release := f.started, f.release
	per, byText := f.buildTime, f.byText
	f.mu.Unlock()
	if per == 0 {
		per = time.Millisecond
	}

	if started != nil {
		started <- struct{}{}
	}
	if release != nil {
		abort := func() ([]*store.KB, *qkbfly.BuildStats, error) {
			// Cancelled mid-build: no document was completed.
			if f.cancelled != nil {
				f.cancelled <- struct{}{}
			}
			return make([]*store.KB, len(docs)),
				&qkbfly.BuildStats{Parallelism: 1, PerDocElapsed: make([]time.Duration, len(docs))},
				ctx.Err()
		}
		select {
		case <-release:
			// release can race with cancellation; cancellation wins.
			if ctx.Err() != nil {
				return abort()
			}
		case <-ctx.Done():
			return abort()
		}
	}

	shards := make([]*store.KB, len(docs))
	perDoc := make([]time.Duration, len(docs))
	for i, d := range docs {
		shards[i] = shardFor(d.ID)
		if byText {
			shards[i] = textShard(d.ID, d.Text)
		}
		perDoc[i] = per
	}
	bs := &qkbfly.BuildStats{
		Documents: len(docs), Sentences: len(docs), Clauses: len(docs),
		Parallelism: 1, PerDocElapsed: perDoc,
	}
	bs.StageElapsed.Annotate = per * time.Duration(len(docs))
	return shards, bs, nil
}

// shardFor builds the deterministic per-document shard of the fake
// pipeline: one entity and one fact derived from the document ID.
func shardFor(id string) *store.KB { return textShard(id, "content of "+id) }

// textShard is the fake pipeline's shard of a document by its text: the
// fact's object is the text, so replacing a document's text under its
// ID replaces its content.
func textShard(id, text string) *store.KB {
	kb := store.New()
	kb.AddEntity(store.EntityRecord{ID: "E_" + id, Name: id, Mentions: []string{id}, Types: []string{"DOC"}})
	kb.AddFact(store.Fact{
		Subject:    store.Value{EntityID: "E_" + id},
		Relation:   "mentions",
		Pattern:    "mentions",
		Objects:    []store.Value{{Literal: text}},
		Confidence: 1,
		Source:     store.Provenance{DocID: id},
	})
	return kb
}

// ---------------------------------------------------------------------------
// Real-system fixture (small synthetic world), shared across tests.
// ---------------------------------------------------------------------------

var realFixture struct {
	once  sync.Once
	world *corpus.World
	sys   *qkbfly.System
}

func realSystem(t *testing.T) (*corpus.World, *qkbfly.System) {
	t.Helper()
	realFixture.once.Do(func() {
		w := corpus.NewWorld(corpus.SmallConfig())
		pipe := clause.NewPipeline(w.Repo, depparse.Malt)
		st := stats.Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
		idx := search.New(corpus.Docs(append(w.BackgroundCorpus(), w.NewsDataset(2)...)))
		realFixture.world = w
		realFixture.sys = qkbfly.New(qkbfly.Resources{
			Repo: w.Repo, Patterns: w.Patterns, Stats: st, Index: idx,
		}, qkbfly.DefaultConfig())
	})
	return realFixture.world, realFixture.sys
}

// ---------------------------------------------------------------------------
// Concurrency suite
// ---------------------------------------------------------------------------

// TestServeSingleflightCollapsesDuplicates hammers the server with
// goroutines issuing duplicate and distinct queries: every duplicate must
// be served by a cache hit or an in-flight join, so the engine runs
// exactly once per distinct query, and every result must be
// fingerprint-identical to a cold build of the same query.
func TestServeSingleflightCollapsesDuplicates(t *testing.T) {
	fb := &fakeBackend{}
	srv := serve.New(fb, serve.Options{})
	queries := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	const perQuery = 16

	cold := map[string]string{} // query -> fingerprint of an isolated cold build
	for _, q := range queries {
		res, err := serve.New(&fakeBackend{}, serve.Options{}).KB(context.Background(), q, "", 2)
		if err != nil {
			t.Fatalf("cold %s: %v", q, err)
		}
		cold[q] = res.KB.Fingerprint()
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*perQuery)
	for _, q := range queries {
		for g := 0; g < perQuery; g++ {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				res, err := srv.KB(context.Background(), q, "", 2)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					return
				}
				if got := res.KB.Fingerprint(); got != cold[q] {
					errs <- fmt.Errorf("%s: served KB differs from cold build", q)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := int(fb.runs.Load()); got != len(queries) {
		t.Errorf("engine build calls = %d, want %d (one per distinct query)", got, len(queries))
	}
	c := srv.Counters()
	if got := c.Get(serve.CounterEngineRuns); got != int64(len(queries)) {
		t.Errorf("engine_runs counter = %d, want %d", got, len(queries))
	}
	total := c.Get(serve.CounterQueryHits) + c.Get(serve.CounterQueryMisses) + c.Get(serve.CounterInflightJoins)
	if want := int64(len(queries) * perQuery); total != want {
		t.Errorf("hits(%d)+misses(%d)+joins(%d) = %d, want %d requests accounted",
			c.Get(serve.CounterQueryHits), c.Get(serve.CounterQueryMisses),
			c.Get(serve.CounterInflightJoins), total, want)
	}
	if got := c.Get(serve.CounterQueryMisses); got != int64(len(queries)) {
		t.Errorf("query_misses = %d, want %d", got, len(queries))
	}
}

// TestServeWarmHitSkipsEngine is the warm-path acceptance check on the
// real system: the second identical query is served from the query cache
// with zero additional engine runs and an identical fingerprint to both
// the first serve and a direct (serverless) cold build.
func TestServeWarmHitSkipsEngine(t *testing.T) {
	w, sys := realSystem(t)
	srv := serve.New(sys, serve.Options{})
	ctx := context.Background()
	name := w.Entity(w.EntitiesOfType("ACTOR")[0]).Name

	coldKB, _, _, err := sys.BuildKBForQueryContext(ctx, name, "wikipedia", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := coldKB.Fingerprint()
	if want == "" {
		t.Fatal("cold build produced an empty KB")
	}

	first, err := srv.KB(ctx, name, "wikipedia", 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first serve reported a cache hit")
	}
	if got := first.KB.Fingerprint(); got != want {
		t.Error("first serve differs from direct cold build")
	}
	runsAfterCold := srv.Counters().Get(serve.CounterEngineRuns)
	if runsAfterCold != 1 {
		t.Fatalf("engine_runs after cold serve = %d, want 1", runsAfterCold)
	}

	warm, err := srv.KB(ctx, name, "wikipedia", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("second serve was not a cache hit")
	}
	if got := warm.KB.Fingerprint(); got != want {
		t.Error("warm serve differs from cold build")
	}
	if got := srv.Counters().Get(serve.CounterEngineRuns); got != runsAfterCold {
		t.Errorf("warm serve invoked the engine: engine_runs = %d, want %d", got, runsAfterCold)
	}
	if srv.Counters().Get(serve.CounterSavedTotalNS) <= 0 {
		t.Error("warm hit credited no saved time")
	}
	if warm.Stats == nil || warm.Stats.Documents != first.Stats.Documents {
		t.Errorf("warm stats = %+v, want the cold build's accounting", warm.Stats)
	}
}

// TestServeKBForDocsShardReuse drives the qa-style path on the real
// system: building twice for the same retrieved documents must reuse
// every shard (no second engine run) and produce a byte-identical KB to
// the direct engine build.
func TestServeKBForDocsShardReuse(t *testing.T) {
	w, sys := realSystem(t)
	srv := serve.New(sys, serve.Options{})
	ctx := context.Background()
	docs := func() []*nlp.Document { return corpus.Docs(w.WikiDataset(6)) }

	directKB, _, err := sys.BuildKBContext(ctx, docs())
	if err != nil {
		t.Fatal(err)
	}
	want := directKB.Fingerprint()

	kb1, bs1, err := srv.KBForDocs(ctx, docs())
	if err != nil {
		t.Fatal(err)
	}
	if got := kb1.Fingerprint(); got != want {
		t.Error("served KBForDocs differs from direct BuildKBContext")
	}
	if bs1.Documents != 6 || len(bs1.PerDocElapsed) != 6 {
		t.Errorf("cold stats: %d docs, %d per-doc timings", bs1.Documents, len(bs1.PerDocElapsed))
	}

	kb2, bs2, err := srv.KBForDocs(ctx, docs())
	if err != nil {
		t.Fatal(err)
	}
	if got := kb2.Fingerprint(); got != want {
		t.Error("shard-reused KBForDocs differs from direct build")
	}
	if bs2.Documents != 6 {
		t.Errorf("warm stats: %d docs", bs2.Documents)
	}
	c := srv.Counters()
	if got := c.Get(serve.CounterEngineRuns); got != 1 {
		t.Errorf("engine_runs = %d, want 1 (second build fully shard-served)", got)
	}
	if got := c.Get(serve.CounterShardHits); got != 6 {
		t.Errorf("shard_hits = %d, want 6", got)
	}
}

// TestServeConcurrentDistinctAndOverlappingDocs hammers KBForDocs from
// many goroutines over overlapping document sets under the race detector:
// results must stay deterministic and the shard cache must stay coherent.
func TestServeConcurrentDistinctAndOverlappingDocs(t *testing.T) {
	fb := &fakeBackend{}
	srv := serve.New(fb, serve.Options{})
	ctx := context.Background()

	sets := [][]string{
		{"d1", "d2", "d3"},
		{"d2", "d3", "d4"},
		{"d3", "d4", "d5"},
	}
	want := make([]string, len(sets))
	for i, ids := range sets {
		shards := make([]*store.KB, 0, len(ids))
		for _, id := range ids {
			shards = append(shards, shardFor(id))
		}
		merged := store.New()
		for _, sh := range shards {
			merged.Merge(sh)
		}
		want[i] = merged.Fingerprint()
	}
	mkDocs := func(ids []string) []*nlp.Document {
		docs := make([]*nlp.Document, 0, len(ids))
		for _, id := range ids {
			docs = append(docs, &nlp.Document{ID: id, Title: id})
		}
		return docs
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 8; round++ {
		for i := range sets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				kb, _, err := srv.KBForDocs(ctx, mkDocs(sets[i]))
				if err != nil {
					errs <- err
					return
				}
				if kb.Fingerprint() != want[i] {
					errs <- fmt.Errorf("set %d: nondeterministic merge", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Overlapping sets may race on a shared document before either caches
	// it (both build it; the results are identical), but the shard cache
	// must converge on exactly the five distinct documents.
	if snap := srv.Stats(); snap.ShardEntries != 5 {
		t.Errorf("shard entries = %d, want 5", snap.ShardEntries)
	}
}
