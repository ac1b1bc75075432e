// Benchmarks regenerating each table and figure of the paper's evaluation
// (§7), plus ablation benches for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package qkbfly_test

import (
	"context"
	"runtime"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/experiments"
	"qkbfly/internal/nlp"
	"qkbfly/internal/serve"
)

var benchEnv *experiments.Env

func getBenchEnv(b testing.TB) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		benchEnv = experiments.NewEnv(corpus.SmallConfig(), 2)
	}
	return benchEnv
}

// BenchmarkTable3FactExtraction regenerates the Table 3 comparison
// (DEFIE, QKBfly, QKBfly-pipeline, QKBfly-noun on fact extraction).
func BenchmarkTable3FactExtraction(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable3And4(env, 15, 80)
	}
}

// BenchmarkTable4EntityLinking isolates the NED measurement of Table 4
// (it shares the computation with Table 3; this bench runs the joint
// system only).
func BenchmarkTable4EntityLinking(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	docs := corpus.Docs(env.World.WikiDataset(15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BuildKB(docs)
		docs = corpus.Docs(env.World.WikiDataset(15))
	}
}

// BenchmarkTable5OpenIE regenerates the Open IE component comparison.
func BenchmarkTable5OpenIE(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable5(env, 100, 80)
	}
}

// BenchmarkTable6GraphAlgorithms regenerates the greedy-vs-ILP comparison.
func BenchmarkTable6GraphAlgorithms(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable6(env, 8, 1, 2, 80)
	}
}

// BenchmarkFigure5SpouseExtraction regenerates the Table 7 / Figure 5
// spouse-extraction comparison against the DeepDive-style extractor.
func BenchmarkFigure5SpouseExtraction(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunSpouse(env, 400, 20, []int{5, 10, 25})
	}
}

// BenchmarkTable9QA regenerates the ad-hoc QA evaluation.
func BenchmarkTable9QA(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable9(env, 25)
	}
}

// ---------------------------------------------------------------------------
// Engine benchmarks: the serial path versus the concurrent staged engine
// over the same batch. On a multi-core machine the parallel build wins by
// roughly the worker count while producing a byte-identical KB (asserted
// via store.KB.Fingerprint before timing starts).
// ---------------------------------------------------------------------------

func benchBuildKBAtParallelism(b *testing.B, parallelism int) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	const nDocs = 24
	ctx := context.Background()

	// Identity check outside the timed region: the engine at this
	// parallelism must produce the same KB as the serial path.
	serialKB, _, _ := sys.BuildKBContext(ctx, corpus.Docs(env.World.WikiDataset(nDocs)),
		qkbfly.WithParallelism(1))
	parKB, _, err := sys.BuildKBContext(ctx, corpus.Docs(env.World.WikiDataset(nDocs)),
		qkbfly.WithParallelism(parallelism))
	if err != nil {
		b.Fatal(err)
	}
	if serialKB.Fingerprint() != parKB.Fingerprint() {
		b.Fatalf("parallel KB (p=%d) differs from serial KB", parallelism)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiDataset(nDocs))
		b.StartTimer()
		if _, _, err := sys.BuildKBContext(ctx, docs, qkbfly.WithParallelism(parallelism)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildKBSerial is the baseline: the staged pipeline with a
// single worker, equivalent to the original per-document loop.
func BenchmarkBuildKBSerial(b *testing.B) { benchBuildKBAtParallelism(b, 1) }

// coldBuildAllocsBaseline is what one BenchmarkBuildKBSerial build (24
// documents, one worker) allocated when the in-process harness last
// recorded it: 7492 allocations per build once the scorer's sentence
// vectors shared one buffer (7513 when the densify solver first kept its
// state in dense tables; 8103 just before; 10461 recorded earlier).
const coldBuildAllocsBaseline = 7492

// TestBuildKBSerialAllocations is the machine-independent gate on the
// cold build: allocations per build may not exceed the recorded baseline
// by more than 20%. Wall-clock is left to the benchmarks; an allocation
// count repeats across machines.
func TestBuildKBSerialAllocations(t *testing.T) {
	env := getBenchEnv(t)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	const nDocs, runs = 24, 3
	// Annotation mutates documents, so every build (AllocsPerRun adds one
	// warm-up) gets a fresh set, generated outside the measured region.
	sets := make([][]*nlp.Document, runs+1)
	for i := range sets {
		sets[i] = corpus.Docs(env.World.WikiDataset(nDocs))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		docs := sets[next]
		next++
		if _, _, err := sys.BuildKBContext(context.Background(), docs, qkbfly.WithParallelism(1)); err != nil {
			t.Error(err)
		}
	})
	if limit := 1.2 * coldBuildAllocsBaseline; allocs > limit {
		t.Errorf("cold build allocates %.0f times per build, over the limit of %.0f (1.2 x %d)",
			allocs, limit, coldBuildAllocsBaseline)
	}
	t.Logf("cold build: %.0f allocations per build (baseline %d)", allocs, coldBuildAllocsBaseline)
}

// BenchmarkBuildKBParallel runs the same batch with one worker per CPU.
func BenchmarkBuildKBParallel(b *testing.B) { benchBuildKBAtParallelism(b, runtime.NumCPU()) }

// ---------------------------------------------------------------------------
// Serving-layer benchmarks: the cost of a query through serve.Server cold
// (full retrieval + pipeline) versus warm (query-cache hit). The gap is
// the speedup a long-lived daemon buys on repeated queries; the roadmap
// target is warm ≥ 10× faster than cold.
// ---------------------------------------------------------------------------

func benchServeQuery(b *testing.B) (*experiments.Env, string) {
	env := getBenchEnv(b)
	id := env.World.EntitiesOfType("ACTOR")[0]
	return env, env.World.Entity(id).Name
}

// BenchmarkServeCold serves the query on a fresh server every iteration:
// every request pays retrieval, the four-stage pipeline and the merge.
func BenchmarkServeCold(b *testing.B) {
	env, query := benchServeQuery(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := serve.New(sys, serve.Options{})
		if _, err := srv.KB(ctx, query, "wikipedia", 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWarm primes one long-lived server and then serves the
// same query from the cache; the identity of warm and cold results is
// asserted (fingerprints) before timing starts.
func BenchmarkServeWarm(b *testing.B) {
	env, query := benchServeQuery(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	ctx := context.Background()
	srv := serve.New(sys, serve.Options{})
	cold, err := srv.KB(ctx, query, "wikipedia", 4)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := srv.KB(ctx, query, "wikipedia", 4)
	if err != nil {
		b.Fatal(err)
	}
	if !warm.CacheHit || warm.KB.Fingerprint() != cold.KB.Fingerprint() {
		b.Fatalf("warm result invalid: hit=%t", warm.CacheHit)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.KB(ctx, query, "wikipedia", 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeShardReuse measures the middle ground: a query whose
// documents are all shard-cached but whose merged KB is not — the serve
// path re-merges cached shards instead of running the pipeline.
func BenchmarkServeShardReuse(b *testing.B) {
	env, query := benchServeQuery(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	ctx := context.Background()
	srv := serve.New(sys, serve.Options{})
	docs := sys.Retrieve(query, "wikipedia", 4)
	if len(docs) == 0 {
		b.Fatal("no documents retrieved")
	}
	if _, _, err := srv.KBForDocs(ctx, docs); err != nil {
		b.Fatal(err) // primes the shard cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.KBForDocs(ctx, docs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Component benchmarks: the per-document cost the paper reports in
// Tables 3 and 6.
// ---------------------------------------------------------------------------

// BenchmarkBuildKBPerDocumentGreedy measures the full three-stage pipeline
// per document with the greedy graph algorithm.
func BenchmarkBuildKBPerDocumentGreedy(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiDataset(1))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

// BenchmarkBuildKBPerDocumentILP measures the same pipeline with the exact
// ILP (Appendix A) — the slow path of Table 6.
func BenchmarkBuildKBPerDocumentILP(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.ILP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiDataset(1))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

// BenchmarkBuildKBWikiaGreedy / ...ILP: long fiction pages, where the
// runtime gap between the greedy algorithm and exact inference is widest
// (Table 6's Wikia rows).
func BenchmarkBuildKBWikiaGreedy(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiaDataset(2))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

func BenchmarkBuildKBWikiaILP(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.ILP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiaDataset(2))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblationPipelineMode: three separate stages instead of joint
// inference (the QKBfly-pipeline configuration).
func BenchmarkAblationPipelineMode(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Pipeline, qkbfly.Greedy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiDataset(5))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

// BenchmarkAblationNounOnly: no co-reference resolution.
func BenchmarkAblationNounOnly(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.NounOnly, qkbfly.Greedy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := corpus.Docs(env.World.WikiDataset(5))
		b.StartTimer()
		sys.BuildKB(docs)
	}
}

// BenchmarkAblationTauSweep: the cost of distilling facts at different
// confidence thresholds (the recall/precision knob of §2.1).
func BenchmarkAblationTauSweep(b *testing.B) {
	env := getBenchEnv(b)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	kb, _ := sys.BuildKB(corpus.Docs(env.World.WikiDataset(10)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tau := range []float64{0.0, 0.25, 0.5, 0.75, 0.9} {
			cfg := qkbfly.DefaultConfig()
			cfg.Tau = tau
			s := qkbfly.New(qkbfly.Resources{
				Repo: env.World.Repo, Patterns: env.World.Patterns, Stats: env.Stats,
			}, cfg)
			s.FilterTau(kb)
		}
	}
}

// BenchmarkStatisticsBuild: the one-time background-statistics pass over
// the corpus (priors, context vectors, type signatures).
func BenchmarkStatisticsBuild(b *testing.B) {
	env := getBenchEnv(b)
	_ = env
	w := corpus.NewWorld(corpus.SmallConfig())
	for i := 0; i < b.N; i++ {
		experiments.NewEnv(corpus.SmallConfig(), 1)
	}
	_ = w
}
