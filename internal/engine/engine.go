// Package engine is the concurrent staged execution layer of QKBfly: it
// runs the per-document pipeline of §3–§5 — (1) linguistic annotation and
// clause detection, (2) semantic-graph construction, (3) densification
// (greedy or exact ILP), (4) canonicalization — over a worker pool.
//
// Each worker owns reusable stage state (a graph.Builder, a
// densify.Scorer whose entity-level caches survive across documents, and
// a canon.Canonicalizer) instead of re-allocating it per document, and
// canonicalizes every document into its own KB shard. Shards are merged
// in document order, so the final KB — fact set, IDs, entity records,
// confidences — is byte-identical no matter how many workers ran or how
// the scheduler interleaved them, and identical to a serial execution.
// That holds where names collide too, since densify adds its weights in a
// fixed order: TestBuildIsDeterministicWithNameCollisions (in package
// qkbfly) builds 400 documents of the world scaled x8 on one worker and
// on four and compares the fingerprints.
//
// The engine is the substrate the public qkbfly API is built on;
// qkbfly.System.BuildKBContext is a thin adapter over Engine.Run.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qkbfly/internal/canon"
	"qkbfly/internal/densify"
	"qkbfly/internal/graph"
	"qkbfly/internal/ilp"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/kb/patterns"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/pipeline"
	"qkbfly/internal/stats"
)

// Config describes one fully-resolved execution: the background
// repositories, the stage parameters, and the execution policy. The
// public qkbfly package translates its Mode/Algorithm configuration into
// these plain fields.
type Config struct {
	// Background repositories (§2.2). All are read-only during a run and
	// shared by every worker.
	Repo     *entityrepo.Repo
	Patterns *patterns.Repo
	Stats    *stats.Stats
	// Pipe is the NLP annotation pipeline (stage 1). It is stateless per
	// call and shared by all workers; each worker annotates distinct
	// documents, which are mutated in place.
	Pipe *clause.Pipeline

	// Params are the fully-resolved §4 hyper-parameters (PipelineMode and
	// UseTypeSignatures already reflect the system mode).
	Params densify.Params
	// UseILP selects the exact branch-and-bound solver over the greedy
	// densification (Table 6); ILPMaxNodes bounds its search per document.
	UseILP      bool
	ILPMaxNodes int
	// IncludePronouns enables pronoun nodes and co-reference resolution
	// (disabled in the QKBfly-noun configuration).
	IncludePronouns bool
	// CorefWindow overrides the pronoun backward window when >= 0.
	CorefWindow int

	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS. The
	// pool is additionally clamped to the number of documents.
	Parallelism int
}

// Option mutates a Config; the public API exposes these so callers can
// tune one BuildKBContext call without rebuilding the system.
type Option func(*Config)

// WithParallelism sets the worker-pool size (n <= 0 restores the
// GOMAXPROCS default).
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithCorefWindow overrides the pronoun co-reference window (the paper
// fixes 5 backward sentences; the ablation study varies it).
func WithCorefWindow(w int) Option {
	return func(c *Config) { c.CorefWindow = w }
}

// StageTimings accounts per-stage time, summed across workers (so on a
// multi-worker run the stage times add up to CPU time, not wall time).
// Merge is the final single-threaded shard merge.
type StageTimings struct {
	Annotate     time.Duration
	Graph        time.Duration
	Densify      time.Duration
	Canonicalize time.Duration
	Merge        time.Duration
}

// Add accumulates another accounting into t (the serving layer sums the
// timings of partial shard builds the same way the engine sums workers).
func (t *StageTimings) Add(o StageTimings) {
	t.Annotate += o.Annotate
	t.Graph += o.Graph
	t.Densify += o.Densify
	t.Canonicalize += o.Canonicalize
	t.Merge += o.Merge
}

// BuildStats is the run-time accounting of one engine run. The qkbfly
// package aliases it as qkbfly.BuildStats.
type BuildStats struct {
	Documents    int
	Sentences    int
	Clauses      int
	EdgesRemoved int
	// Elapsed is the wall-clock time of the whole run; PerDocElapsed is
	// indexed by document position (only processed documents appear when
	// the run was cancelled).
	Elapsed       time.Duration
	PerDocElapsed []time.Duration
	// StageElapsed breaks the work down by pipeline stage.
	StageElapsed StageTimings
	// Parallelism is the worker-pool size actually used.
	Parallelism int
}

// Engine executes the staged pipeline over document batches.
type Engine struct {
	cfg Config
}

// New returns an engine for the configuration.
func New(cfg Config, opts ...Option) *Engine {
	for _, o := range opts {
		o(&cfg)
	}
	return &Engine{cfg: cfg}
}

// Run processes the documents through the four-stage pipeline with a
// worker pool and returns the merged on-the-fly KB.
//
// Scheduling is dynamic (workers pull the next unprocessed document), but
// the result is deterministic: every document is canonicalized into its
// own shard and shards merge in document order. Cancelling the context
// stops workers from claiming further documents; the already-processed
// prefix of shards is still merged and returned alongside ctx.Err().
func (e *Engine) Run(ctx context.Context, docs []*nlp.Document) (*store.KB, *BuildStats, error) {
	start := time.Now()
	shards, bs, err := e.RunShards(ctx, docs)
	if len(docs) == 0 {
		// Empty batch: a usable empty KB with zeroed stage timings — no
		// merge pass is timed, so BuildStats is consistent whether the
		// retrieval came back empty or the caller passed no documents.
		return store.New(), bs, err
	}

	// Compact the document-aligned accounting to processed documents only
	// and merge their shards in document order.
	perDoc := bs.PerDocElapsed
	bs.PerDocElapsed = make([]time.Duration, 0, bs.Documents)
	mergeStart := time.Now()
	kb := store.New()
	for i, shard := range shards {
		if shard == nil {
			continue // not reached before cancellation
		}
		kb.Merge(shard)
		bs.PerDocElapsed = append(bs.PerDocElapsed, perDoc[i])
	}
	bs.StageElapsed.Merge = time.Since(mergeStart)
	bs.Elapsed = time.Since(start)
	return kb, bs, err
}

// RunShards is the first half of Run: it processes the documents on the
// worker pool and returns one canonicalized KB shard per document without
// merging them. shards[i] is nil when document i was not reached before
// cancellation. BuildStats.PerDocElapsed is aligned with docs (zero for
// unreached documents) and BuildStats.Documents counts processed ones.
//
// Shards are deterministic per document — the same document always yields
// the same shard regardless of worker count or batch composition — which
// is what makes them safe to cache and re-merge across queries.
func (e *Engine) RunShards(ctx context.Context, docs []*nlp.Document) ([]*store.KB, *BuildStats, error) {
	if len(docs) == 0 {
		return nil, &BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}, ctx.Err()
	}
	n := e.cfg.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(docs) {
		n = len(docs)
	}
	if n < 1 {
		n = 1
	}

	start := time.Now()
	shards := make([]*store.KB, len(docs))
	perDoc := make([]time.Duration, len(docs))
	locals := make([]BuildStats, n)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := newWorker(&e.cfg)
			defer wk.release()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				t0 := time.Now()
				shards[i] = wk.process(docs[i], &locals[w])
				perDoc[i] = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()

	bs := &BuildStats{Parallelism: n, PerDocElapsed: perDoc}
	for w := range locals {
		bs.Sentences += locals[w].Sentences
		bs.Clauses += locals[w].Clauses
		bs.EdgesRemoved += locals[w].EdgesRemoved
		bs.StageElapsed.Add(locals[w].StageElapsed)
	}
	for _, shard := range shards {
		if shard != nil {
			bs.Documents++
		}
	}
	bs.Elapsed = time.Since(start)
	return shards, bs, ctx.Err()
}

// MergeShards merges per-document shards in slice order into a fresh KB,
// skipping nil entries — exactly the deterministic merge Run performs, so
// interleaving cached shards with freshly-built ones reproduces the KB a
// cold build would have produced.
//
// This is the flat, one-shot expression of the shard merge; the
// segmented expression of the same fold is store.Tree over SealShards
// output, which re-brackets the merge into O(log n) partial runs with
// identical materialized layout (same facts, IDs and entity records —
// see store.MaterializeRuns). One-shot builds use the flat form because
// they materialize exactly once; sessions and the serving layer use the
// tree so increments and evictions touch O(log W) runs instead of
// re-merging the window.
func MergeShards(shards []*store.KB) *store.KB {
	kb := store.New()
	for _, shard := range shards {
		if shard != nil {
			kb.Merge(shard)
		}
	}
	return kb
}

// SealShards seals per-document KB shards into immutable store.Segments
// — the bridge from RunShards output to the segmented substrate sessions
// and the serving layer merge through. ids supplies each segment's cache
// identity (use "" for uncacheable shards); times, when non-nil, stamps
// each segment's pipeline cost for saved-time accounting. Nil shards
// (not reached before cancellation) yield nil segments at the same
// positions.
func SealShards(shards []*store.KB, ids []string, times []time.Duration) []*store.Segment {
	segs := make([]*store.Segment, len(shards))
	for i, shard := range shards {
		if shard == nil {
			continue
		}
		id := ""
		if i < len(ids) {
			id = ids[i]
		}
		segs[i] = store.SealSegment(shard, id)
		if times != nil && i < len(times) {
			segs[i].SetBuildTime(times[i])
		}
	}
	return segs
}

// worker holds the reusable per-worker stage state: the stage objects
// (builder, canonicalizer, lazily-created scorer) plus the pipeline
// scratch arena that pools every stage's allocations across the worker's
// documents (reset-not-reallocate; the shard itself is the only output
// that escapes).
type worker struct {
	cfg     *Config
	builder *graph.Builder
	canon   *canon.Canonicalizer
	scorer  *densify.Scorer // lazily created, Reset per document
	scratch *pipeline.Scratch
}

// scratchPool carries pipeline scratch arenas across engine runs (and
// across Engine instances — scratches hold no configuration, only
// buffers), so a long-lived server whose queries each build a small
// batch keeps reusing the same warmed CKY charts, graph arenas, solver
// tables and canon buffers instead of re-growing them per query.
var scratchPool = sync.Pool{New: func() any { return pipeline.NewScratch() }}

func newWorker(cfg *Config) *worker {
	b := graph.NewBuilder(cfg.Repo)
	b.IncludePronouns = cfg.IncludePronouns
	if cfg.CorefWindow >= 0 {
		b.CorefWindow = cfg.CorefWindow
	}
	return &worker{
		cfg:     cfg,
		builder: b,
		canon:   canon.New(cfg.Patterns, cfg.Repo),
		scratch: scratchPool.Get().(*pipeline.Scratch),
	}
}

// release returns the worker's scratch arena to the pool.
func (w *worker) release() { scratchPool.Put(w.scratch); w.scratch = nil }

// process runs the four stages over one document and returns its KB shard.
func (w *worker) process(doc *nlp.Document, bs *BuildStats) *store.KB {
	// Stage 1: linguistic pre-processing and clause detection.
	t := time.Now()
	clausesBySent := w.cfg.Pipe.AnnotateDocumentScratch(doc, w.scratch.Annotate)
	bs.StageElapsed.Annotate += time.Since(t)
	bs.Sentences += len(doc.Sentences)
	for _, cs := range clausesBySent {
		bs.Clauses += len(cs)
	}

	// Stage 2: semantic graph (§3).
	t = time.Now()
	g := w.builder.BuildScratch(doc, clausesBySent, w.scratch.Graph)
	bs.StageElapsed.Graph += time.Since(t)

	// Stage 3: densification — joint NED + CR (§4 / Appendix A).
	t = time.Now()
	if w.scorer == nil {
		w.scorer = densify.NewScorer(w.cfg.Stats, w.cfg.Repo, w.cfg.Params, doc)
	} else {
		w.scorer.Reset(doc)
	}
	var res *densify.Result
	if w.cfg.UseILP {
		res, _ = ilp.SolveScratch(g, w.scorer, w.cfg.ILPMaxNodes, w.scratch.ILP)
	} else {
		res = densify.DensifyScratch(g, w.scorer, w.scratch.Densify)
	}
	bs.EdgesRemoved += res.Removed
	bs.StageElapsed.Densify += time.Since(t)

	// Stage 4: canonicalization into this document's shard (§5).
	t = time.Now()
	shard := store.New()
	w.canon.PopulateScratch(shard, doc, g, res, w.scratch.Canon)
	bs.StageElapsed.Canonicalize += time.Since(t)
	return shard
}
