// Package serve is the long-lived serving layer over QKBfly: the process
// that survives between queries so on-the-fly KB construction (Nguyen et
// al., PVLDB 2017) does not start from scratch every time.
//
// A Server wraps a qkbfly.System behind five reuse mechanisms:
//
//   - a query cache: finished KBs keyed by normalized query + build
//     options, with LRU capacity and TTL eviction;
//   - a singleflight group: concurrent identical queries collapse onto
//     one engine run and share its result;
//   - a shard cache: the engine's per-document shards are deterministic,
//     so a query whose retrieved documents were already processed (by
//     any earlier query, or by a session) skips the pipeline for them.
//     Shards are cached as sealed, immutable store.Segments — the same
//     representation session merge trees are made of;
//   - a run cache: partial merges of adjacent segments, keyed by the
//     pair of immutable input segments and reused, so overlapping
//     queries, sessions sliding over the same documents, and repeated
//     KBForDocs calls share merge work, not just per-document pipeline
//     work;
//   - encoded answers: a cached pattern answer (pattern cache,
//     serve_query.go) keeps its /query JSON rows, encoded once on first
//     read, so a hit copies bytes instead of re-encoding rows
//     (encode.go).
//
// The pattern cache keys on the snapshot's content identity
// (store.Identity, O(1) per snapshot), the same value /deltas stamps and
// the durable seal and the follower verify; no cache keys on labels.
//
// Because segment merging is order- and bracketing-deterministic, every
// path — cold build, query-cache hit, singleflight join, segment
// re-merge through any run-cache hit pattern — yields a byte-identical
// KB for the same query.
//
// Reuse is accounted through a stats.CounterSet (hits, misses,
// inflight joins, shard reuses, evictions, time saved); KBs handed out
// by the Server are shared across callers and must be treated read-only.
package serve

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"qkbfly"
	"qkbfly/internal/engine"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
	"qkbfly/internal/stats"
)

// Counter names exposed through Server.Stats.
const (
	// CounterQueryHits / CounterQueryMisses count query-cache lookups;
	// CounterInflightJoins counts requests coalesced onto an in-flight
	// duplicate build by the singleflight group.
	CounterQueryHits     = "query_hits"
	CounterQueryMisses   = "query_misses"
	CounterInflightJoins = "inflight_joins"
	// CounterShardHits counts per-document shards reused from earlier
	// queries; CounterShardMisses counts shards that had to be built.
	CounterShardHits   = "shard_hits"
	CounterShardMisses = "shard_misses"
	// CounterRunHits / CounterRunMisses count partial-merge (multi-shard
	// run) reuses across sessions and queries.
	CounterRunHits   = "run_hits"
	CounterRunMisses = "run_misses"
	// CounterPatternHits / CounterPatternMisses count pattern-query result
	// cache lookups (keyed by normalized pattern + snapshot content
	// identity); CounterPatternJoins counts requests coalesced onto an
	// in-flight identical evaluation.
	CounterPatternHits   = "pattern_hits"
	CounterPatternMisses = "pattern_misses"
	CounterPatternJoins  = "pattern_joins"
	// CounterPatternMaintained counts cached pattern answers rolled
	// forward through a published delta (served warm across an ingest
	// without recomputation); CounterPatternMaintainFallbacks counts
	// entries that exceeded the maintenance work budget (or carry a row
	// limit) and were dropped to recompute on next read instead.
	CounterPatternMaintained        = "pattern_maintained"
	CounterPatternMaintainFallbacks = "pattern_maintain_fallbacks"
	// CounterEngineRuns counts invocations of the construction pipeline
	// (a warm query performs zero); CounterEngineDocs the documents those
	// runs processed.
	CounterEngineRuns = "engine_runs"
	CounterEngineDocs = "engine_docs"
	// Eviction counters, split by cache and by cause.
	CounterQueryEvictions    = "query_evictions"
	CounterQueryTTLEvictions = "query_ttl_evictions"
	CounterShardEvictions    = "shard_evictions"
	CounterShardTTLEvictions = "shard_ttl_evictions"
	// Saved-time counters (nanoseconds). Query-cache hits credit the full
	// per-stage cost of the cached build; shard reuses credit the per-doc
	// build time of each reused shard.
	CounterSavedTotalNS        = "saved_total_ns"
	CounterSavedAnnotateNS     = "saved_annotate_ns"
	CounterSavedGraphNS        = "saved_graph_ns"
	CounterSavedDensifyNS      = "saved_densify_ns"
	CounterSavedCanonicalizeNS = "saved_canonicalize_ns"
	CounterSavedShardNS        = "saved_shard_ns"
	// Replication (leader side): CounterDeltaStreams counts /deltas
	// subscriptions ever served (a non-zero value marks the process a
	// leader in /healthz); CounterDeltaStreamsActive is the live-stream
	// gauge (+1/-1 around each follow=1 response); CounterDeltaRecords
	// the identity-stamped records shipped.
	CounterDeltaStreams       = "delta_streams"
	CounterDeltaStreamsActive = "delta_streams_active"
	CounterDeltaRecords       = "delta_records"
)

// Backend is the slice of qkbfly.System the Server is built on: document
// retrieval and per-document shard construction. Tests substitute fakes
// to control latency and blocking.
type Backend interface {
	// Retrieve returns the documents for a query; see qkbfly.System.Retrieve.
	Retrieve(query, source string, size int) []*nlp.Document
	// BuildShardsContext builds one deterministic KB shard per document;
	// see qkbfly.System.BuildShardsContext.
	BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error)
}

// Options tune a Server's caches.
type Options struct {
	// Capacity is the maximum number of query-cache entries (finished
	// KBs); <= 0 means 128.
	Capacity int
	// ShardCapacity is the maximum number of cached per-document shards;
	// <= 0 means 1024.
	ShardCapacity int
	// RunCapacity is the maximum number of cached partial merges
	// (multi-shard runs); <= 0 means 256.
	RunCapacity int
	// PatternCapacity is the maximum number of cached pattern-query
	// results (QueryPattern); <= 0 means 256.
	PatternCapacity int
	// TTL expires entries of all four caches (query, shard, run and
	// pattern) this long after insertion; 0 means no time-based expiry.
	TTL time.Duration
	// Clock supplies the time used for TTL bookkeeping; nil means
	// time.Now. Tests inject a fake clock so eviction is exercised
	// without sleeping. (Elapsed-time measurements always use the real
	// monotonic clock.)
	Clock func() time.Time
}

// Result is one served KB build.
type Result struct {
	KB   *store.KB
	Docs []*nlp.Document
	// Stats is the accounting of the engine work behind this result. For
	// a query-cache hit it is a copy of the cold build's stats; for a
	// shard-reuse build, PerDocElapsed reports each reused shard's
	// original build time at its document position.
	Stats *qkbfly.BuildStats
	// CacheHit reports the result came straight from the query cache;
	// Joined that it was coalesced onto another request's in-flight build.
	CacheHit bool
	Joined   bool
}

// queryEntry is one finished KB in the query cache.
type queryEntry struct {
	kb   *store.KB
	docs []*nlp.Document
	bs   *qkbfly.BuildStats
}

// Server is the long-lived serving layer. It is safe for concurrent use.
type Server struct {
	backend  Backend
	opt      Options
	counters *stats.CounterSet

	queries  *cache[string, *queryEntry]               // by query key
	shards   *cache[string, *store.Segment]            // sealed shards, by doc key
	runs     *cache[[2]*store.Segment, *store.Segment] // partial merges, by input pair
	patterns *cache[patternKey, *patternEntry]         // by identity + pattern (serve_query.go)
	flight   *flightGroup[string, *Result]
	pflight  *flightGroup[patternKey, *patternEntry]

	// persistStats, when set (SetPersistStats), supplies the durable
	// segment store's counters for /stats — blob writeback, fault-ins,
	// demotions, recovery. Guarded by mu.
	mu           sync.Mutex
	persistStats func() map[string]int64
}

// New returns a Server over the backend (normally a *qkbfly.System).
func New(backend Backend, opt Options) *Server {
	if opt.Capacity <= 0 {
		opt.Capacity = 128
	}
	if opt.ShardCapacity <= 0 {
		opt.ShardCapacity = 1024
	}
	if opt.RunCapacity <= 0 {
		opt.RunCapacity = 256
	}
	if opt.PatternCapacity <= 0 {
		opt.PatternCapacity = 256
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}
	counters := stats.NewCounterSet()
	return &Server{
		backend:  backend,
		opt:      opt,
		counters: counters,
		queries:  newCache[string, *queryEntry](opt.Capacity, opt, counters, CounterQueryEvictions, CounterQueryTTLEvictions),
		shards:   newCache[string, *store.Segment](opt.ShardCapacity, opt, counters, CounterShardEvictions, CounterShardTTLEvictions),
		// No eviction counters for runs and patterns: both rebuild cheaply
		// from live segments and expire under the same TTL.
		runs:     newCache[[2]*store.Segment, *store.Segment](opt.RunCapacity, opt, counters, "", ""),
		patterns: newCache[patternKey, *patternEntry](opt.PatternCapacity, opt, counters, "", ""),
		flight:   newFlightGroup[string, *Result](),
		pflight:  newFlightGroup[patternKey, *patternEntry](),
	}
}

// Counters exposes the serving counters (read with Get/Snapshot).
func (s *Server) Counters() *stats.CounterSet { return s.counters }

// HasBackend reports whether this server can run the construction
// pipeline (false on a follower daemon, which only replicates).
func (s *Server) HasBackend() bool { return s.backend != nil }

// Snapshot is a point-in-time view of the serving state for /stats.
// Each cache reports occupancy alongside its configured capacity, so
// operators can read cache pressure (entries at capacity means the LRU
// is cycling), not just hit ratios.
type Snapshot struct {
	Counters        map[string]int64 `json:"counters"`
	QueryEntries    int              `json:"query_entries"`
	QueryCapacity   int              `json:"query_capacity"`
	ShardEntries    int              `json:"shard_entries"`
	ShardCapacity   int              `json:"shard_capacity"`
	RunEntries      int              `json:"run_entries"`
	RunCapacity     int              `json:"run_capacity"`
	PatternEntries  int              `json:"pattern_entries"`
	PatternCapacity int              `json:"pattern_capacity"`
	// Persist carries the durable segment store's counters when the
	// daemon runs with -data-dir (blobs written/loaded, demotions,
	// resident bytes, recovery figures); absent otherwise.
	Persist map[string]int64 `json:"persist,omitempty"`
}

// SetPersistStats wires the durable store's counter snapshot into
// Stats/(/stats). Pass nil to detach.
func (s *Server) SetPersistStats(fn func() map[string]int64) {
	s.mu.Lock()
	s.persistStats = fn
	s.mu.Unlock()
}

// Stats returns the current counters and cache occupancy.
func (s *Server) Stats() Snapshot {
	s.mu.Lock()
	ps := s.persistStats
	s.mu.Unlock()
	var persist map[string]int64
	if ps != nil {
		persist = ps()
	}
	counters := s.counters.Snapshot()
	// Access-path selection is accounted process-wide by the query
	// engine (per-frame, not per-server); fold it into the same map so
	// /stats shows index usage next to the cache counters.
	counters["index_pos_scans"], counters["index_full_scans"] = query.IndexCounters()
	return Snapshot{
		Counters:        counters,
		Persist:         persist,
		QueryEntries:    s.queries.len(),
		QueryCapacity:   s.opt.Capacity,
		ShardEntries:    s.shards.len(),
		ShardCapacity:   s.opt.ShardCapacity,
		RunEntries:      s.runs.len(),
		RunCapacity:     s.opt.RunCapacity,
		PatternEntries:  s.patterns.len(),
		PatternCapacity: s.opt.PatternCapacity,
	}
}

// KB serves the on-the-fly KB for a query: query cache, then
// singleflight, then shard-cache-assisted construction. On error (e.g. a
// cancelled build) the Result still carries the KB over the processed
// prefix, and nothing is cached at the query level.
//
// Coalesced duplicates run under the leader's context (the usual
// singleflight tradeoff): if the leading request is cancelled mid-build,
// joiners receive its error too — nothing is cached, so their retry
// rebuilds. A joiner's own cancellation only detaches that joiner.
func (s *Server) KB(ctx context.Context, query, source string, size int, opts ...qkbfly.Option) (*Result, error) {
	key := queryKey(query, source, size, opts)
	if e, ok := s.queries.get(key); ok {
		s.recordQueryHit(e)
		return &Result{KB: e.kb, Docs: e.docs, Stats: copyStats(e.bs), CacheHit: true}, nil
	}
	fr, joined, err := s.flight.do(ctx, key, func() *flightResult[*Result] {
		// Double-check: a previous leader may have filled the cache
		// between our miss and acquiring the flight.
		if e, ok := s.queries.get(key); ok {
			s.recordQueryHit(e)
			return &flightResult[*Result]{res: &Result{KB: e.kb, Docs: e.docs, Stats: copyStats(e.bs), CacheHit: true}}
		}
		s.counters.Add(CounterQueryMisses, 1)
		docs := s.backend.Retrieve(query, source, size)
		kb, bs, err := s.buildFromShards(ctx, docs, opts)
		res := &Result{KB: kb, Docs: docs, Stats: bs}
		if err == nil {
			// The cached entry keeps its own copy of the accounting so a
			// caller mutating res.Stats cannot corrupt later hits.
			s.queries.put(key, &queryEntry{kb: kb, docs: docs, bs: copyStats(bs)})
		}
		return &flightResult[*Result]{res: res, err: err}
	})
	if err != nil {
		// The joiner's own context was cancelled while waiting.
		return &Result{KB: store.New(), Stats: &qkbfly.BuildStats{PerDocElapsed: []time.Duration{}}, Joined: true}, err
	}
	if joined {
		s.counters.Add(CounterInflightJoins, 1)
		res := *fr.res
		if res.Stats != nil {
			// Each joiner gets its own accounting copy; the KB and docs
			// are shared read-only like on the cache-hit path.
			res.Stats = copyStats(res.Stats)
		}
		res.Joined = true
		return &res, fr.err
	}
	return fr.res, fr.err
}

// KBForDocs builds the KB for an already-retrieved document set through
// the shard cache: cached shards are reused, only missing documents go
// through the pipeline, and everything merges in document order. This is
// the path internal/qa plugs into (qa retrieves its own documents).
func (s *Server) KBForDocs(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) (*store.KB, *qkbfly.BuildStats, error) {
	return s.buildFromShards(ctx, docs, opts)
}

// buildFromShards assembles the merged KB for docs through the segment
// and run caches and compacts the accounting to processed documents.
// Segments fold by pairwise reduction through the caching merge, so
// overlapping document sets reuse partial merges, and the final run
// materializes into the same flat KB a document-order engine merge
// produces.
func (s *Server) buildFromShards(ctx context.Context, docs []*nlp.Document, opts []qkbfly.Option) (*store.KB, *qkbfly.BuildStats, error) {
	start := time.Now()
	segs, times, bs, buildErr := s.assembleSegments(ctx, docs, opts)
	mergeStart := time.Now()
	live := make([]*store.Segment, 0, len(segs))
	for _, seg := range segs {
		if seg != nil {
			live = append(live, seg)
		}
	}
	kb := store.MaterializeRuns([]*store.Segment{s.foldSegments(live)})
	bs.StageElapsed.Merge = time.Since(mergeStart)
	for i, seg := range segs {
		if seg == nil {
			continue
		}
		bs.PerDocElapsed = append(bs.PerDocElapsed, times[i])
	}
	bs.Elapsed = time.Since(start)
	return kb, bs, buildErr
}

// foldSegments reduces an ordered run of segments to one by pairwise
// merging through the run cache (nil for an empty input). Any bracketing
// yields identical content; pairwise reduction maximizes sharing with
// other folds over overlapping subsequences.
func (s *Server) foldSegments(segs []*store.Segment) *store.Segment {
	if len(segs) == 0 {
		return nil
	}
	for len(segs) > 1 {
		next := make([]*store.Segment, 0, (len(segs)+1)/2)
		for i := 0; i+1 < len(segs); i += 2 {
			next = append(next, s.MergeSegments(segs[i], segs[i+1]))
		}
		if len(segs)%2 == 1 {
			next = append(next, segs[len(segs)-1])
		}
		segs = next
	}
	return segs[0]
}

// MergeSegments is the caching segment merge (qkbfly.SegmentMerger):
// partial merges are keyed by their two input segments and reused
// across sessions and queries. The key is exact: segments are immutable
// and merging is deterministic, so equal inputs give equal merges, and
// the cached key holds both inputs, so their addresses are never reused
// while the entry lives. A replaced document is a new segment, so no
// run over its old content can be found under its new one.
func (s *Server) MergeSegments(a, b *store.Segment) *store.Segment {
	key := [2]*store.Segment{a, b}
	if run, ok := s.runs.get(key); ok {
		s.counters.Add(CounterRunHits, 1)
		return run
	}
	s.counters.Add(CounterRunMisses, 1)
	m := store.MergeSegments(a, b)
	s.runs.put(key, m)
	return m
}

// BuildShardsContext is the server-side implementation of
// qkbfly.ShardBuilder: one deterministic KB shard per document,
// materialized from the segment cache. Sessions prefer
// BuildSegmentsContext (qkbfly.SegmentBuilder), which hands out the
// sealed segments directly; this form exists for callers that still
// want flat per-document KBs and pays one materialization per shard.
func (s *Server) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	segs, bs, err := s.BuildSegmentsContext(ctx, docs, opts...)
	shards := make([]*store.KB, len(segs))
	for i, seg := range segs {
		if seg != nil {
			shards[i] = store.MaterializeRuns([]*store.Segment{seg})
		}
	}
	return shards, bs, err
}

// BuildSegmentsContext is the server-side implementation of
// qkbfly.SegmentBuilder: one sealed, immutable segment per document,
// served from the per-document segment cache when possible and built
// (and cached) otherwise. segs[i] is nil for documents not reached
// before cancellation; PerDocElapsed is doc-aligned, reporting a cached
// segment's original build time at its position — the same contract as
// engine.RunShards.
//
// This is what lets a qkbfly.Session opened on the server (OpenSession)
// share work with every query and every other session: a document
// processed anywhere under the same build options folds straight from
// cache on ingest, an ingested document warms the cache for later
// queries, and the session merge tree's partial merges flow through the
// server's run cache (MergeSegments).
func (s *Server) BuildSegmentsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.Segment, *qkbfly.BuildStats, error) {
	if len(docs) == 0 {
		return nil, &qkbfly.BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}, ctx.Err()
	}
	start := time.Now()
	segs, times, bs, err := s.assembleSegments(ctx, docs, opts)
	bs.PerDocElapsed = times
	bs.Elapsed = time.Since(start)
	return segs, bs, err
}

// OpenSession opens an incremental ingestion session whose shard builds
// go through this server's per-document shard cache (see
// BuildShardsContext). The server does not track the session beyond that:
// close it with Session.Close when done.
//
// The shard cache assumes a document ID identifies immutable content. To
// replace a document's content under the same ID, call InvalidateShards
// alongside Session.Evict before re-ingesting (the daemon's /evict does).
func (s *Server) OpenSession(opts qkbfly.SessionOptions) *qkbfly.Session {
	return qkbfly.Open(s, opts)
}

// InvalidateShards drops every cached segment of the given document IDs
// (across all build-option variants) and returns how many entries were
// removed — the cache-coherence hook for replacing a document's content
// under a reused ID. The run cache is left alone: its keys are segments,
// and the replaced document's rebuilt segment matches none of them.
func (s *Server) InvalidateShards(docIDs ...string) int {
	removed := 0
	for _, id := range docIDs {
		prefix := id + "\x00"
		removed += len(s.shards.take(func(k string) bool { return strings.HasPrefix(k, prefix) }))
	}
	return removed
}

// assembleSegments resolves one sealed segment per document — cache hits
// first, one backend build for the misses — returning doc-aligned
// segments and per-document times plus the accounting of the engine work
// performed. Freshly built shards are sealed and cached even when the
// run was cancelled mid-batch (each processed shard is complete and
// deterministic); the query-level entry is the caller's decision.
func (s *Server) assembleSegments(ctx context.Context, docs []*nlp.Document, opts []qkbfly.Option) ([]*store.Segment, []time.Duration, *qkbfly.BuildStats, error) {
	okey := resolveOptions(opts).key()
	segs := make([]*store.Segment, len(docs))
	times := make([]time.Duration, len(docs))
	var missing []*nlp.Document
	var missingIdx []int
	for i, d := range docs {
		// Anonymous documents bypass the cache entirely: an empty ID
		// cannot identify a shard across requests, and two distinct
		// anonymous documents must never collide on one cache key.
		var se *store.Segment
		if d.ID != "" {
			se, _ = s.shards.get(shardKey(d.ID, okey))
		}
		if se != nil {
			segs[i] = se
			times[i] = se.BuildTime()
			s.counters.Add(CounterShardHits, 1)
			s.counters.Add(CounterSavedShardNS, int64(se.BuildTime()))
		} else {
			s.counters.Add(CounterShardMisses, 1)
			missing = append(missing, d)
			missingIdx = append(missingIdx, i)
		}
	}

	bs := &qkbfly.BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}
	var buildErr error
	if len(missing) > 0 {
		s.counters.Add(CounterEngineRuns, 1)
		built, mbs, err := s.backend.BuildShardsContext(ctx, missing, opts...)
		buildErr = err
		if mbs != nil {
			bs.Sentences = mbs.Sentences
			bs.Clauses = mbs.Clauses
			bs.EdgesRemoved = mbs.EdgesRemoved
			bs.Parallelism = mbs.Parallelism
			bs.StageElapsed.Add(mbs.StageElapsed)
			s.counters.Add(CounterEngineDocs, int64(mbs.Documents))
		}
		for j, shard := range built {
			if shard == nil {
				continue // not reached before cancellation
			}
			i := missingIdx[j]
			if mbs != nil && j < len(mbs.PerDocElapsed) {
				times[i] = mbs.PerDocElapsed[j]
			}
			// Anonymous documents seal without a label: their segment is
			// usable (and mergeable) but never cached by document.
			id := ""
			if docs[i].ID != "" {
				id = shardKey(docs[i].ID, okey)
			}
			seg := store.SealSegment(shard, id)
			seg.SetBuildTime(times[i])
			segs[i] = seg
			if id != "" {
				s.shards.put(id, seg)
			}
		}
	}
	for _, seg := range segs {
		if seg != nil {
			bs.Documents++
		}
	}
	return segs, times, bs, buildErr
}

// recordQueryHit credits the saved engine work of one query-cache hit.
func (s *Server) recordQueryHit(e *queryEntry) {
	s.counters.Add(CounterQueryHits, 1)
	st := e.bs.StageElapsed
	s.counters.Add(CounterSavedTotalNS, int64(e.bs.Elapsed))
	s.counters.Add(CounterSavedAnnotateNS, int64(st.Annotate))
	s.counters.Add(CounterSavedGraphNS, int64(st.Graph))
	s.counters.Add(CounterSavedDensifyNS, int64(st.Densify))
	s.counters.Add(CounterSavedCanonicalizeNS, int64(st.Canonicalize))
}

// queryKey normalizes the request into the cache key. Whitespace and case
// differences in the query collapse (mirroring index normalization);
// options that change the built KB (the co-reference window) are part of
// the key, while pure execution knobs (parallelism) are not — the engine
// guarantees the same KB at any worker count.
func queryKey(query, source string, size int, opts []qkbfly.Option) string {
	q := strings.Join(strings.Fields(strings.ToLower(query)), " ")
	return q + "\x00" + source + "\x00" + strconv.Itoa(size) + "\x00" + resolveOptions(opts).key()
}

// resolvedOptions are the concrete per-call option values after folding
// the opaque option closures into a canonical engine configuration. Cache
// keys derive from these resolved values — never from formatting the
// option slice itself — so equivalent option sets (reordered, duplicated,
// or differing only in execution knobs) collapse onto one cache entry.
type resolvedOptions struct {
	corefWindow int // -1 = builder default; changes the built KB
	parallelism int // worker-pool size; never changes the built KB
}

// resolveOptions applies the options to the engine's canonical defaults
// (the same way qkbfly.System does when it runs a build) and captures the
// resulting values.
func resolveOptions(opts []qkbfly.Option) resolvedOptions {
	cfg := engine.Config{CorefWindow: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return resolvedOptions{corefWindow: cfg.CorefWindow, parallelism: cfg.Parallelism}
}

// key renders only the result-affecting resolved values. Parallelism is
// deliberately excluded: the engine produces a byte-identical KB at any
// worker count, so keying on it would split equivalent cache entries.
func (r resolvedOptions) key() string {
	return "cw=" + strconv.Itoa(r.corefWindow)
}

// shardKey identifies a cached per-document shard: the document plus the
// options its build depended on.
func shardKey(docID, optKey string) string {
	return docID + "\x00" + optKey
}

// copyStats returns a shallow copy with its own PerDocElapsed, so callers
// of a cache hit cannot disturb the cached accounting.
func copyStats(bs *qkbfly.BuildStats) *qkbfly.BuildStats {
	cp := *bs
	cp.PerDocElapsed = append([]time.Duration(nil), bs.PerDocElapsed...)
	return &cp
}
