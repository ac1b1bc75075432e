// Package qkbfly implements QKBfly, the query-driven on-the-fly knowledge
// base construction system of Nguyen et al. (PVLDB 11(1), 2017).
//
// Given an entity-centric query or a natural-language question, the system
// retrieves relevant documents, builds a semantic graph per document (§3),
// jointly performs named-entity disambiguation and co-reference resolution
// by graph densification (§4), and canonicalizes the result into an
// on-the-fly KB of binary and higher-arity facts (§5).
//
// Basic use:
//
//	world := corpus.NewWorld(corpus.DefaultConfig())   // or your own docs
//	sys := qkbfly.New(qkbfly.Resources{...}, qkbfly.DefaultConfig())
//	kb, _, err := sys.BuildKBContext(ctx, docs, qkbfly.WithParallelism(8))
//	facts := kb.Search(store.Query{Subject: "Type:MUSICAL_ARTIST"})
//
// Document batches are executed by the concurrent staged engine
// (internal/engine): a worker pool runs the four-stage pipeline with
// reusable per-worker state and merges per-document KB shards
// deterministically, so any parallelism level yields the same KB.
package qkbfly

import (
	"context"

	"qkbfly/internal/densify"
	"qkbfly/internal/engine"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/kb/patterns"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/search"
	"qkbfly/internal/stats"
)

// Mode selects the inference configuration compared in §7.1.
type Mode int

// The configurations of Table 3.
const (
	// Joint is full QKBfly: fact extraction, NED and CR jointly.
	Joint Mode = iota
	// Pipeline runs three separate stages and omits the type-signature
	// feature (QKBfly-pipeline).
	Pipeline
	// NounOnly performs fact extraction and NED only; no co-reference
	// resolution (QKBfly-noun).
	NounOnly
)

// Algorithm selects greedy densification or the exact ILP (Table 6).
type Algorithm int

// Graph algorithms.
const (
	Greedy Algorithm = iota
	ILP
)

// Config controls a System.
type Config struct {
	Mode      Mode
	Algorithm Algorithm
	// Params are the §4 hyper-parameters.
	Params densify.Params
	// Tau is the confidence threshold for distilling high-quality facts
	// (§4; the paper uses 0.5, and 0.9 for the precision-oriented
	// DeepDive comparison).
	Tau float64
	// ParserMode selects the dependency parser (Malt is the paper's
	// choice; Stanford reproduces the slow baseline of Table 5).
	ParserMode depparse.Mode
	// ILPMaxNodes bounds the branch-and-bound search per document.
	ILPMaxNodes int
	// Parallelism is the default worker-pool size for KB construction;
	// <= 0 means one worker per CPU. Per-call WithParallelism overrides it.
	Parallelism int
}

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() Config {
	return Config{
		Mode:        Joint,
		Algorithm:   Greedy,
		Params:      densify.DefaultParams(),
		Tau:         0.5,
		ParserMode:  depparse.Malt,
		ILPMaxNodes: 2_000_000,
	}
}

// Resources are the background repositories of §2.2: the entity
// repository (E), the pattern repository (P) and the statistics (S)
// precomputed from the background corpus (C).
type Resources struct {
	Repo     *entityrepo.Repo
	Patterns *patterns.Repo
	Stats    *stats.Stats
	// Index retrieves documents for queries; optional (BuildKB does not
	// need it, BuildKBForQuery does).
	Index *search.Index
}

// System is a configured QKBfly instance.
type System struct {
	res  Resources
	cfg  Config
	pipe *clause.Pipeline
}

// New assembles a System.
func New(res Resources, cfg Config) *System {
	var gaz interface {
		LookupType(string) (nlp.NERType, bool)
	}
	if res.Repo != nil {
		gaz = res.Repo
	}
	return &System{
		res:  res,
		cfg:  cfg,
		pipe: clause.NewPipeline(gaz, cfg.ParserMode),
	}
}

// Pipeline exposes the NLP pipeline (used by baselines and experiments).
func (s *System) Pipeline() *clause.Pipeline { return s.pipe }

// BuildStats is the run-time accounting of one build: document, sentence
// and clause counts, per-document wall times, and per-stage timings from
// the execution engine.
type BuildStats = engine.BuildStats

// Option tunes one BuildKBContext call (worker-pool size, co-reference
// window) without reconfiguring the System.
type Option = engine.Option

// WithParallelism sets the worker-pool size for one call (n <= 0 means
// one worker per CPU).
func WithParallelism(n int) Option { return engine.WithParallelism(n) }

// WithCorefWindow overrides the pronoun co-reference window for one call
// (the paper fixes 5 backward sentences; the ablation study varies it).
func WithCorefWindow(w int) Option { return engine.WithCorefWindow(w) }

// BuildKBContext builds the on-the-fly KB over the documents in one
// shot: the staged engine runs the batch and merges the per-document
// shards flat, in document order. The result is deterministic — any
// parallelism level, and any partitioning of the same documents into
// Session ingest increments, produces the same KB (the session's merge
// tree is an associative re-bracketing of the same shard merge).
// Cancelling the context stops the build early; the KB over the
// already-processed document prefix is returned with ctx.Err().
//
// Long-lived callers that feed documents incrementally should hold a
// Session (OpenSession) instead of re-running one-shot builds: a session
// pays O(log W) merge work per increment where a rebuild pays O(W).
// Facts below the configured τ are still stored; use FilterTau or
// store.Query.MinConf to distill.
func (s *System) BuildKBContext(ctx context.Context, docs []*nlp.Document, opts ...Option) (*store.KB, *BuildStats, error) {
	return engine.New(s.engineConfig(), opts...).Run(ctx, docs)
}

// BuildKB is BuildKBContext with a background context — the original
// blocking API, kept as a thin wrapper.
func (s *System) BuildKB(docs []*nlp.Document) (*store.KB, *BuildStats) {
	kb, bs, _ := s.BuildKBContext(context.Background(), docs)
	return kb, bs
}

// engineConfig resolves the System's Mode/Algorithm configuration into
// the engine's plain execution config.
func (s *System) engineConfig() engine.Config {
	params := s.cfg.Params
	if s.cfg.Mode == Pipeline {
		params.PipelineMode = true
		params.UseTypeSignatures = false
	}
	return engine.Config{
		Repo:            s.res.Repo,
		Patterns:        s.res.Patterns,
		Stats:           s.res.Stats,
		Pipe:            s.pipe,
		Params:          params,
		UseILP:          s.cfg.Algorithm == ILP && s.cfg.Mode == Joint,
		ILPMaxNodes:     s.cfg.ILPMaxNodes,
		IncludePronouns: s.cfg.Mode != NounOnly,
		CorefWindow:     -1,
		Parallelism:     s.cfg.Parallelism,
	}
}

// Retrieve returns the documents the index yields for the query — the §6
// retrieval step of the query-driven flow, exposed so the serving layer
// can consult its shard cache before deciding what to build. Documents
// are deep copies (annotation mutates them); a system without an index
// retrieves nothing. source restricts retrieval ("wikipedia", "news" or
// ""); size is the number of documents.
func (s *System) Retrieve(query string, source string, size int) []*nlp.Document {
	if s.res.Index == nil {
		return nil
	}
	hits := s.res.Index.Search(query, size, source)
	docs := make([]*nlp.Document, 0, len(hits))
	for _, h := range hits {
		docs = append(docs, h.Doc.Clone())
	}
	return docs
}

// BuildShardsContext runs the four-stage pipeline but returns one KB
// shard per document instead of the merged KB — the reusable half of
// BuildKBContext. Shards are deterministic per document, so a serving
// layer can cache them and re-merge (engine.MergeShards order) with
// shards of other batches; shards[i] is nil for documents not reached
// before cancellation.
func (s *System) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error) {
	return engine.New(s.engineConfig(), opts...).RunShards(ctx, docs)
}

// BuildKBForQueryContext retrieves documents for the query from the index
// and builds the on-the-fly KB from them — the end-to-end query-driven
// flow of §6. source restricts retrieval ("wikipedia", "news" or "");
// size is the number of documents. Empty retrievals (no index, or no
// hits) return a usable empty KB with consistent BuildStats: zeroed stage
// timings and an empty, non-nil PerDocElapsed, with per-call options
// applied the same way as on the non-empty path.
func (s *System) BuildKBForQueryContext(ctx context.Context, query string, source string, size int, opts ...Option) (*store.KB, []*nlp.Document, *BuildStats, error) {
	docs := s.Retrieve(query, source, size)
	kb, bs, err := s.BuildKBContext(ctx, docs, opts...)
	return kb, docs, bs, err
}

// BuildKBForQuery is BuildKBForQueryContext with a background context.
func (s *System) BuildKBForQuery(query string, source string, size int) (*store.KB, []*nlp.Document, *BuildStats) {
	kb, docs, bs, _ := s.BuildKBForQueryContext(context.Background(), query, source, size)
	return kb, docs, bs
}

// FilterTau returns the facts meeting the configured confidence threshold.
func (s *System) FilterTau(kb *store.KB) []store.Fact {
	return kb.Search(store.Query{MinConf: s.cfg.Tau})
}
