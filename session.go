package qkbfly

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"qkbfly/internal/engine"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/stats"
)

// ErrSessionClosed is returned by Ingest and Evict after Close.
var ErrSessionClosed = errors.New("qkbfly: session closed")

// Counter names a session records into SessionOptions.Counters: the
// lagging-consumer drops, by what the dropped subscription was
// projecting (Watch facts, WatchPattern rows, or bare deltas), and the
// outcome of the compactions ingests run (see Session.compact).
const (
	CounterWatchDrops        = "session_watch_drops"
	CounterPatternWatchDrops = "session_pattern_watch_drops"
	CounterDeltaWatchDrops   = "session_delta_watch_drops"
	CounterMaintCompactions  = "maint_compactions_adopted"
	CounterMaintVerifyFails  = "maint_verify_failures"
)

// minLooseRuns is the compaction trigger: an ingest that leaves this many
// loose (uncompacted) leaf runs compacts the version it published — low
// enough that read fan-in stays near the O(log W) bound, high enough
// that a burst of single-document ingests merges once, not per ingest.
const minLooseRuns = 4

// ShardBuilder builds one deterministic KB shard per document — the
// substrate a Session folds increments through. *System implements it
// directly (every ingest is an engine run); *serve.Server implements it
// through its per-document shard cache, so a session opened on a server
// shares shards with every query and every other session the server
// handles.
type ShardBuilder interface {
	BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error)
}

// SegmentBuilder is the sealed-shard variant of ShardBuilder: one
// immutable store.Segment per document. A Session prefers this interface
// when its builder implements it (a *serve.Server does), so sealing work
// is shared through the server's segment cache; otherwise the session
// seals the ShardBuilder's KB shards itself.
type SegmentBuilder interface {
	BuildSegmentsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.Segment, *BuildStats, error)
}

// SegmentMerger lets a builder supply the merge function for the
// session's merge tree. A *serve.Server implements it with a caching
// merge, so the partial merges of one session's tree are shared with
// other sessions and with query-path re-merges over the same documents.
type SegmentMerger interface {
	MergeSegments(a, b *store.Segment) *store.Segment
}

// Persistence receives every published session version, under the
// session lock, for durable writeback — implemented by
// internal/kb/store/persist.Store. addKeys/addSeqs/addSegs are the leaf
// segments this version pushed (parallel slices, push order), delSeqs
// the arrival sequences it removed, tree the published merge tree, and
// nextSeq the session's arrival-sequence watermark after the version.
// Implementations must only enqueue (writeback runs off the ingest
// path); a restored session does not re-publish its restored state.
type Persistence interface {
	Publish(version, nextSeq uint64, addKeys []string, addSeqs []uint64,
		addSegs []*store.Segment, delSeqs []uint64, tree *store.Tree)
}

// SessionOptions configure an ingestion session.
type SessionOptions struct {
	// BuildOptions are applied to every Ingest's shard build (co-reference
	// window, parallelism). They are fixed at Open so every increment is
	// built under the same configuration — mixing coref windows across
	// increments would break the batch-equivalence guarantee.
	BuildOptions []Option
	// MaxDocuments bounds the rolling window: when an ingest pushes the
	// session past this many documents, the oldest are evicted (arrival
	// order) in the same published version as the increment. A window
	// slide touches only the O(log W) merge-tree runs on the eviction and
	// insertion paths — not the whole window — so per-ingest cost grows
	// sub-linearly in the window size. 0 means unlimited.
	MaxDocuments int
	// Tau is the confidence threshold for Watch delivery: subscribers
	// receive facts with Confidence >= Tau. System.OpenSession defaults it
	// to the system's configured τ; 0 delivers everything.
	Tau float64
	// HistoryLimit caps how many versions of fact diffs are kept for
	// FactsSince; 0 means 1024. A negative limit disables history
	// entirely (FactsSince always reports the horizon; Watch still works).
	// Readers older than the horizon are told to restart from a full
	// snapshot.
	HistoryLimit int
	// WatchBuffer is how many published versions a subscriber (Watch,
	// WatchPattern, WatchDeltas, a Feed tail) may fall behind, whatever
	// each version projects to; <= 0 means 256. One that falls further
	// behind is dropped (its channel closes), like a lagging changefeed
	// consumer, and resumes from the last version it processed.
	WatchBuffer int
	// Persist, when non-nil, receives every published version for durable
	// writeback (see Persistence). Restart with Restore over the
	// persistence layer's recovered state.
	Persist Persistence
	// DeferCompaction is ignored: every ingest appends loose leaf runs
	// and compacts off the session lock (see Ingest).
	//
	// Deprecated: there is one compaction path; the field has no effect.
	DeferCompaction bool
	// Counters, when non-nil, receives the session's accounting:
	// subscriber drops (plain, pattern and delta subscriptions shed for
	// lagging a full buffer behind) and compactions adopted or refused by
	// their content check. Pass the serving layer's CounterSet to surface
	// them through /stats.
	Counters *stats.CounterSet
}

// FactEvent is one fact landing in (or being replayed from) a session,
// stamped with the version that introduced it. The fact is identified
// by its content — Fact.ID is -1, since IDs are local to one
// materialized KB (see store.Delta).
type FactEvent struct {
	Version uint64     `json:"version"`
	Fact    store.Fact `json:"fact"`
}

// Snapshot is an immutable view of a session's KB at one version: a
// merge tree of immutable segments sharing structure with neighboring
// versions. It is safe to query concurrently with ongoing ingestion, for
// as long as the caller likes. The flat KB view is materialized lazily
// on first use and cached, so holding snapshots of versions nobody
// queries costs no merge work; the version's counts and content
// identity are carried, never recomputed from the KB.
type Snapshot struct {
	tree    *store.Tree
	version uint64
	content content
	kbOnce  sync.Once
	kb      *store.KB
	fpOnce  sync.Once
	fp      string
}

// content is what a version holds, known without materializing it: its
// fact and entity counts and its store.Identity. Each published version
// folds it from its predecessor's and its own delta.
type content struct {
	facts, entities int
	id              store.Identity
}

// next is the content after a delta whose identity change is did.
func (c content) next(d *store.Delta, did store.Identity) content {
	return content{
		facts:    c.facts + len(d.Added) - len(d.Removed),
		entities: c.entities + len(d.AddedEntities) - len(d.RemovedEntities),
		id:       c.id.Add(did),
	}
}

// contentOf computes a tree's content from scratch (see store.Tree.Identity).
func contentOf(t *store.Tree) content {
	id, facts, entities := t.Identity()
	return content{facts: facts, entities: entities, id: id}
}

// KB returns the snapshot's knowledge base (read-only by convention; it
// is shared with every other caller of this snapshot's KB). The first
// call materializes the version's merge tree into a flat KB — exactly
// the KB a one-shot BuildKBContext over the surviving documents in
// arrival order would build.
func (s *Snapshot) KB() *store.KB {
	s.kbOnce.Do(func() { s.kb = s.tree.Materialize() })
	return s.kb
}

// Version returns the monotonic session version this snapshot captures.
// Version 0 is the empty pre-ingest state.
func (s *Snapshot) Version() uint64 { return s.version }

// Fingerprint returns the KB's content fingerprint (store.KB.Fingerprint),
// computed once per snapshot and cached — the text a one-shot
// BuildKBContext over the same surviving documents would produce. It
// materializes the KB; Identity is the same content's O(1) stand-in.
func (s *Snapshot) Fingerprint() string {
	s.fpOnce.Do(func() { s.fp = s.KB().Fingerprint() })
	return s.fp
}

// FactCount returns KB().Len() without materializing the KB.
func (s *Snapshot) FactCount() int { return s.content.facts }

// EntityCount returns len(KB().Entities()) without materializing the KB.
func (s *Snapshot) EntityCount() int { return s.content.entities }

// Identity returns the KB's content identity, store.TextIdentity of
// Fingerprint(), without materializing the KB.
func (s *Snapshot) Identity() store.Identity { return s.content.id }

// versionDelta is one retained history entry: the key-based diff a
// version introduced, plus the version's merge tree and content so a
// replay can hand out the same DeltaEvent the live tail did. The tree
// shares structure with its neighbors (persistent merge tree), so
// retaining it costs pointer work, not copies. The entry deliberately
// holds no *Snapshot: a snapshot caches its materialized KB, and history
// must not pin one per retained version.
type versionDelta struct {
	version uint64
	delta   store.Delta
	tree    *store.Tree
	content content
}

// event rebuilds the version's DeltaEvent around a fresh snapshot handle.
func (d versionDelta) event() DeltaEvent {
	return DeltaEvent{Version: d.version, Delta: d.delta,
		Snap: &Snapshot{tree: d.tree, version: d.version, content: d.content}}
}

// Session is a long-lived handle for incremental on-the-fly KB
// construction: documents stream in through Ingest, every increment
// pushes the new documents' segments into the version's merge tree, old
// documents roll out through Evict (or the MaxDocuments window), and
// Snapshot hands out any-time-consistent views that remain valid while
// ingestion continues. It is safe for concurrent use; shard builds run
// outside the session lock, so queries against snapshots never wait on
// the pipeline.
//
// Versions are a merge tree of immutable per-document segments
// (store.Tree): consecutive versions share all unchanged partial merges,
// an ingest or eviction touches only O(log W) runs, and a sliding-window
// ingest (increment + eviction) publishes exactly one version whose
// delta is the key-based diff between the two trees.
//
// The invariant tying it to the batch API: after any sequence of ingests
// and evictions, the session KB is fingerprint-identical to one
// BuildKBContext over the surviving documents in arrival order — the
// merge tree is an associative re-bracketing of the same deterministic
// per-document shards.
type Session struct {
	builder    ShardBuilder
	segBuilder SegmentBuilder // non-nil when builder implements it
	opt        SessionOptions

	mu      sync.Mutex
	docIDs  []string                  // arrival order (session keys)
	segs    map[string]*store.Segment // session key -> sealed segment
	seqs    map[string]uint64         // session key -> tree arrival sequence
	nextSeq uint64
	cur     *Snapshot           // current version; immutable once set
	history []versionDelta      // consecutive per-version diffs, newest last
	subs    *fanout[DeltaEvent] // every subscriber, one event per published version (session_feed.go)
	anonSeq int                 // synthetic keys for documents without IDs
	closed  bool
	loose   int // leaf runs appended since the tree was last compacted
}

// Open starts a session over a shard builder (a *System, or a
// *serve.Server for cache-shared shards and partial merges). The zero
// SessionOptions give an unbounded, un-thresholded session.
func Open(b ShardBuilder, opts SessionOptions) *Session {
	if opts.HistoryLimit == 0 {
		opts.HistoryLimit = 1024
	}
	if opts.WatchBuffer <= 0 {
		opts.WatchBuffer = 256
	}
	var merge store.MergeFunc
	if m, ok := b.(SegmentMerger); ok {
		merge = m.MergeSegments
	}
	s := &Session{
		builder: b,
		opt:     opts,
		segs:    make(map[string]*store.Segment),
		seqs:    make(map[string]uint64),
		cur:     &Snapshot{tree: store.NewTree(merge)},
		subs:    newFanout[DeltaEvent](opts.WatchBuffer),
	}
	if sb, ok := b.(SegmentBuilder); ok {
		s.segBuilder = sb
	}
	return s
}

// DocState is one live document of a persisted session: its session key,
// tree arrival sequence, and (typically demoted) sealed segment.
type DocState struct {
	Key string
	Seq uint64
	Seg *store.Segment
}

// SessionState is the inventory a persistence layer recovered: the raw
// material for Restore. Docs are in arrival order with strictly
// ascending sequences, all below NextSeq.
type SessionState struct {
	Version uint64
	NextSeq uint64
	Docs    []DocState
}

// Restore warm-starts a session from persisted state: the recovered leaf
// segments are replayed through the merge tree in arrival order, and the
// session resumes at st.Version with an empty diff history. Because
// segment merging is associative in content and layout, the restored
// KB is fingerprint-identical to the pre-restart session even though the
// tree's internal bracketing may differ (evictions before the restart
// left splits the replay does not reproduce). The restored version's
// counts and identity are computed once here, by streaming the tree;
// every later version folds them from its delta.
//
// The history horizon restarts at st.Version: FactsSince/DeltaSince with
// an older version report ok=false, telling consumers to re-baseline
// from a full Snapshot — exactly the lagging-consumer contract.
//
// Restore does not call opts.Persist for the restored state (it is
// already durable); subsequent versions publish normally.
func Restore(b ShardBuilder, opts SessionOptions, st SessionState) (*Session, error) {
	s := Open(b, opts)
	// Replay with deferred merges: the tree's layout (and exact run
	// counts) is rebuilt in pointer work, while every compacted payload
	// materializes lazily on first access. A restart is ready to serve
	// without repeating the merge work the previous process already did.
	tree := s.cur.tree.WithMergeFunc(store.RestoreMergeFunc())
	var prev uint64
	for i, d := range st.Docs {
		if d.Seg == nil {
			return nil, fmt.Errorf("qkbfly: restore: document %q has no segment", d.Key)
		}
		if i > 0 && d.Seq <= prev {
			return nil, fmt.Errorf("qkbfly: restore: arrival sequences not ascending at %q", d.Key)
		}
		if d.Seq >= st.NextSeq {
			return nil, fmt.Errorf("qkbfly: restore: document %q sequence %d >= next sequence %d", d.Key, d.Seq, st.NextSeq)
		}
		if _, dup := s.segs[d.Key]; dup {
			return nil, fmt.Errorf("qkbfly: restore: duplicate session key %q", d.Key)
		}
		prev = d.Seq
		tree = tree.Push(d.Seg, d.Seq)
		s.segs[d.Key] = d.Seg
		s.seqs[d.Key] = d.Seq
		s.docIDs = append(s.docIDs, d.Key)
		// Keep synthetic-key counters ahead of any restored anonymous or
		// duplicate-ID keys so new ones never collide.
		var n int
		if _, err := fmt.Sscanf(d.Key, "\x00anon:%d", &n); err == nil && n > s.anonSeq {
			s.anonSeq = n
		}
		if i := strings.LastIndexByte(d.Key, ':'); strings.HasPrefix(d.Key, "\x00dup:") && i >= 0 {
			if n, err := strconv.Atoi(d.Key[i+1:]); err == nil && n > s.anonSeq {
				s.anonSeq = n
			}
		}
	}
	s.nextSeq = st.NextSeq
	// Rebind the session's normal merge (the serving layer's caching one
	// when the builder provides it) for everything pushed after restore.
	var merge store.MergeFunc
	if m, ok := b.(SegmentMerger); ok {
		merge = m.MergeSegments
	}
	tree = tree.WithMergeFunc(merge)
	s.cur = &Snapshot{tree: tree, version: st.Version, content: contentOf(tree)}
	return s, nil
}

// OpenSession opens an incremental ingestion session on the system,
// defaulting the Watch threshold to the system's configured τ.
func (s *System) OpenSession(opts SessionOptions) *Session {
	if opts.Tau == 0 {
		opts.Tau = s.cfg.Tau
	}
	return Open(s, opts)
}

// sessionKey returns the retention/dedup key for a document: its ID, or a
// synthetic unique key for anonymous documents (so documents without IDs
// are never spuriously collapsed). Callers hold s.mu.
func (s *Session) sessionKey(d *nlp.Document) string {
	if d.ID != "" {
		return d.ID
	}
	s.anonSeq++
	return fmt.Sprintf("\x00anon:%d", s.anonSeq)
}

// buildSegments runs the session's builder over the new documents and
// returns one sealed segment per document (nil where the build was
// cancelled first). Outside the session lock.
//
// Fallback-sealed segments carry no label; nothing keys on labels, so
// such a session's snapshots are cacheable like any other.
func (s *Session) buildSegments(ctx context.Context, docs []*nlp.Document) ([]*store.Segment, *BuildStats, error) {
	if s.segBuilder != nil {
		return s.segBuilder.BuildSegmentsContext(ctx, docs, s.opt.BuildOptions...)
	}
	shards, bs, err := s.builder.BuildShardsContext(ctx, docs, s.opt.BuildOptions...)
	var times []time.Duration
	if bs != nil {
		times = bs.PerDocElapsed
	}
	return engine.SealShards(shards, times), bs, err
}

// Ingest feeds documents into the session: only documents not already
// present (by ID) are built — through the session's builder, so a
// server-backed session reuses cached segments — and their segments are
// appended to the merge tree in arrival order. When MaxDocuments is set
// and the batch overflows the window, the oldest documents are evicted
// in the same step: survivors + increment publish as exactly one
// version, and subscribers receive the increment's facts (plus any
// in-place winner changes) as that version's diff. Documents are
// annotated in place, as in BuildKBContext; pass doc.Clone() to keep
// originals pristine.
//
// An ingest that leaves minLooseRuns loose leaf runs compacts the
// version it published before returning, off the session lock (see
// compact). The returned Snapshot is the version as published, loose
// layout included; Snapshot() returns the compacted handle once it is
// adopted. The BuildStats account the engine work of this increment,
// with the tree fold and compaction time in StageElapsed.Merge.
// Cancelling the context stops the build early: the already-processed
// prefix still folds, unprocessed documents are not registered, and
// ctx.Err() is returned. Re-ingesting a present document
// is a no-op. To replace a document's content under the same ID, Evict
// it first — and if the session's builder caches shards (a
// *serve.Server), also invalidate them (Server.InvalidateShards; the
// daemon's /evict does both), since the cache assumes an ID identifies
// immutable content.
func (s *Session) Ingest(ctx context.Context, docs []*nlp.Document) (*Snapshot, *BuildStats, error) {
	// Select the documents that need building. Keys for anonymous docs are
	// assigned here; presence is re-checked at fold time (a concurrent
	// Ingest may land the same ID between the two lockings).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.cur, &BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}, ErrSessionClosed
	}
	var (
		newDocs []*nlp.Document
		newKeys []string
		inBatch = make(map[string]bool, len(docs))
	)
	for _, d := range docs {
		key := s.sessionKey(d)
		if _, present := s.segs[key]; present {
			continue // already in the session: re-ingest is a no-op
		}
		if inBatch[key] {
			// Two documents sharing an ID within one batch keep the engine's
			// batch semantics — both are built and merged in order — by
			// giving the repeat its own synthetic session key (it appears in
			// Docs() under that key and is not reachable by Evict(id)).
			s.anonSeq++
			key = fmt.Sprintf("\x00dup:%s:%d", d.ID, s.anonSeq)
		} else {
			inBatch[key] = true
		}
		newDocs = append(newDocs, d)
		newKeys = append(newKeys, key)
	}
	s.mu.Unlock()

	start := time.Now()
	segs, bs, err := s.buildSegments(ctx, newDocs)
	if bs == nil {
		bs = &BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}
	}

	snap, compact, ferr := s.fold(newKeys, segs, bs)
	if ferr != nil {
		return snap, bs, ferr
	}
	if compact {
		mergeStart := time.Now()
		s.compact(snap)
		bs.StageElapsed.Merge += time.Since(mergeStart)
	}
	bs.Elapsed = time.Since(start)
	return snap, bs, err
}

// fold appends the sealed segments of an ingest to the merge tree as
// loose leaf runs and publishes the result, compacting the accounting
// to processed documents — exactly what engine.Run does for a batch. An
// empty increment, a cancelled build (all-nil segments) or a batch
// fully raced away by a concurrent Ingest does not publish a version
// (and keeps zeroed stage timings, matching the engine's empty-batch
// short-circuit). It returns the current version and whether the ingest
// left enough loose runs to compact it.
func (s *Session) fold(newKeys []string, segs []*store.Segment, bs *BuildStats) (*Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.cur, false, ErrSessionClosed
	}
	perDoc := bs.PerDocElapsed
	bs.PerDocElapsed = make([]time.Duration, 0, len(newKeys))
	var foldIdx []int
	for i, seg := range segs {
		if seg == nil {
			continue // not reached before cancellation
		}
		if _, present := s.segs[newKeys[i]]; present {
			continue // a concurrent Ingest won the race for this document
		}
		foldIdx = append(foldIdx, i)
	}
	if len(foldIdx) > 0 {
		mergeStart := time.Now()
		oldTree := s.cur.tree
		tree := oldTree
		changed := make([]*store.Segment, 0, len(foldIdx))
		ops := &pubOps{}
		for _, i := range foldIdx {
			key := newKeys[i]
			seq := s.nextSeq
			s.nextSeq++
			tree = tree.Append(segs[i], seq)
			s.loose++
			s.segs[key] = segs[i]
			s.seqs[key] = seq
			s.docIDs = append(s.docIDs, key)
			changed = append(changed, segs[i])
			ops.addKeys = append(ops.addKeys, key)
			ops.addSeqs = append(ops.addSeqs, seq)
			ops.addSegs = append(ops.addSegs, segs[i])
			if i < len(perDoc) {
				bs.PerDocElapsed = append(bs.PerDocElapsed, perDoc[i])
			}
		}
		// Window overflow evicts inside the same version: survivors +
		// increment publish once, and the diff below carries exactly what
		// this sliding ingest changed.
		if s.opt.MaxDocuments > 0 && len(s.docIDs) > s.opt.MaxDocuments {
			over := len(s.docIDs) - s.opt.MaxDocuments
			tree, changed = s.dropLocked(tree, s.docIDs[:over], changed, ops)
			s.docIDs = append([]string(nil), s.docIDs[over:]...)
		}
		bs.StageElapsed.Merge = time.Since(mergeStart)
		s.advanceLocked(oldTree, tree, changed, ops)
	}
	return s.cur, len(foldIdx) > 0 && s.loose >= minLooseRuns, nil
}

// compact merges the loose runs of snap, the version an ingest just
// published, off the session lock: it replays the equal-weight merge
// rule over snap's immutable tree, checks that every merged run holds
// what the runs it replaced held — O(merged facts and entities), not
// O(window) — and swaps the result in if snap is still the current
// version. A compaction that loses the race to a newer version is
// dropped; the ingest that published that version compacts it, or the
// next one does. Segment merging is associative in content and layout,
// so a failed check means a broken merge function: the result is
// refused and the tree stays loose.
func (s *Session) compact(snap *Snapshot) {
	compacted, changed := snap.tree.Compact()
	if !changed {
		return
	}
	if !snap.tree.CompactionPreserves(compacted) {
		s.count(CounterMaintVerifyFails, 1)
		return
	}
	if s.adoptCompacted(snap, compacted) {
		s.count(CounterMaintCompactions, 1)
	}
}

// pubOps collects what one version changed, for the Persistence hook:
// the leaf segments pushed (parallel slices, push order) and the arrival
// sequences removed.
type pubOps struct {
	addKeys []string
	addSeqs []uint64
	addSegs []*store.Segment
	delSeqs []uint64
}

// dropLocked removes the given session keys from the tree and the
// session maps, appending their segments to changed and their arrival
// sequences to ops. Callers hold s.mu and fix up s.docIDs themselves.
func (s *Session) dropLocked(tree *store.Tree, victims []string, changed []*store.Segment, ops *pubOps) (*store.Tree, []*store.Segment) {
	for _, id := range victims {
		seg, ok := s.segs[id]
		if !ok {
			continue
		}
		tree, _ = tree.Remove(s.seqs[id])
		changed = append(changed, seg)
		ops.delSeqs = append(ops.delSeqs, s.seqs[id])
		delete(s.segs, id)
		delete(s.seqs, id)
	}
	return tree, changed
}

// advanceLocked publishes tree, derived from the current version's
// oldTree by adding and removing the changed leaf segments, as the next
// version. It diffs the two trees — the delta also yields the version's
// counts and identity, folded from the current version's in O(|delta|)
// — hands the version to the persistence sink (if any), retains its
// diff, and offers one DeltaEvent to every subscriber: all a
// subscriber's filtering and pattern evaluation happens on its own side
// of the channel, so the work under the lock does not grow with what
// subscribers project. Every version is fanned
// out, including eviction-only ones whose delta carries removals alone.
// Callers hold s.mu.
func (s *Session) advanceLocked(oldTree, tree *store.Tree, changed []*store.Segment, ops *pubOps) {
	delta, did := store.DiffTrees(oldTree, tree, changed)
	v := s.cur.version + 1
	s.cur = &Snapshot{tree: tree, version: v, content: s.cur.content.next(&delta, did)}
	if s.opt.Persist != nil {
		s.opt.Persist.Publish(v, s.nextSeq, ops.addKeys, ops.addSeqs, ops.addSegs, ops.delSeqs, tree)
	}
	if s.opt.HistoryLimit > 0 {
		// Drop the oldest version by clearing its slot (so its delta and
		// tree can be collected) and reslicing: append reallocates only
		// when the slots ahead run out, so trimming is amortized O(1).
		if len(s.history) == s.opt.HistoryLimit {
			s.history[0] = versionDelta{}
			s.history = s.history[1:]
		}
		s.history = append(s.history, versionDelta{version: v, delta: delta, tree: tree, content: s.cur.content})
	}
	s.subs.send(DeltaEvent{Version: v, Delta: delta, Snap: s.cur})
}

// Evict removes documents from the session (by document ID) and
// publishes the surviving window as a fresh version. No re-merge
// happens: the merge tree splits the affected runs back into their
// retained partial merges (O(log W) pointer work). Unknown IDs are
// ignored; the removed count is returned. Watch delivers no events for
// removed facts, but a surviving fact whose winning confidence or
// provenance changes because its better evidence was evicted is
// delivered at its new state (it appears in the version's diff as
// Upgraded).
func (s *Session) Evict(docIDs ...string) (*Snapshot, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.cur, 0
	}
	removed := s.evictLocked(docIDs) // must run before s.cur is read
	return s.cur, removed
}

// evictLocked removes the given session keys and publishes the derived
// tree, returning how many documents were removed. It is a no-op (no
// version bump) when nothing matched. Callers hold s.mu.
func (s *Session) evictLocked(victims []string) int {
	gone := make(map[string]bool, len(victims))
	for _, id := range victims {
		if _, ok := s.segs[id]; ok {
			gone[id] = true
		}
	}
	if len(gone) == 0 {
		return 0
	}
	oldTree := s.cur.tree
	tree := oldTree
	var changed []*store.Segment
	survivors := make([]string, 0, len(s.docIDs)-len(gone))
	for _, id := range s.docIDs {
		if !gone[id] {
			survivors = append(survivors, id)
		}
	}
	victimKeys := make([]string, 0, len(gone))
	for _, id := range s.docIDs {
		if gone[id] {
			victimKeys = append(victimKeys, id)
		}
	}
	ops := &pubOps{}
	tree, changed = s.dropLocked(tree, victimKeys, changed, ops)
	s.docIDs = survivors
	s.advanceLocked(oldTree, tree, changed, ops)
	return len(gone)
}

// Snapshot returns the current immutable version. It never blocks on an
// in-flight build (folding is brief; the pipeline runs outside the lock).
func (s *Session) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Version returns the current session version.
func (s *Session) Version() uint64 { return s.Snapshot().version }

// Docs returns the IDs of the documents currently in the session, in
// arrival order (anonymous documents appear under synthetic keys).
func (s *Session) Docs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.docIDs...)
}

// DocCount returns len(Docs()) without copying the window.
func (s *Session) DocCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.docIDs)
}

// FactsSince replays the fact diffs of the versions after v, in version
// order: each version contributes its added facts followed by its
// in-place-changed facts (at their new state), unfiltered — callers
// apply their own confidence threshold. cur is the session version the
// replay is complete up to. ok is false when v predates the retained
// history horizon — the caller should restart from a full Snapshot
// instead. To replay and then keep following without a gap, use Feed.
func (s *Session) FactsSince(v uint64) (events []FactEvent, cur uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	after, cur, ok := s.sinceLocked(v)
	for _, d := range after {
		events = appendFacts(events, d.version, &d.delta, math.Inf(-1))
	}
	return events, cur, ok
}

// DeltaSince returns the full key-based diffs (including removals and
// entity changes) of the versions after v, newest last, under the same
// horizon contract as FactsSince — the raw material for consumers that
// mirror the KB rather than append to it.
func (s *Session) DeltaSince(v uint64) (deltas []store.Delta, cur uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	after, cur, ok := s.sinceLocked(v)
	for _, d := range after {
		deltas = append(deltas, d.delta)
	}
	return deltas, cur, ok
}

// appendFacts is the plain-fact projection of one version: its added
// facts, then its in-place-changed facts at their new state, keeping
// those with Confidence >= minConf.
func appendFacts(events []FactEvent, v uint64, d *store.Delta, minConf float64) []FactEvent {
	for _, facts := range [2][]store.Fact{d.Added, d.Upgraded} {
		for _, f := range facts {
			if f.Confidence < minConf {
				continue
			}
			events = append(events, FactEvent{Version: v, Fact: f})
		}
	}
	return events
}

// Facts projects the version onto the facts it added or changed in
// place (at their new state) with Confidence >= minConf — what Watch
// delivers for it, and what /facts streams.
func (ev DeltaEvent) Facts(minConf float64) []FactEvent {
	return appendFacts(nil, ev.Version, &ev.Delta, minConf)
}

// Watch subscribes to facts with Confidence >= the session τ as they
// land, stamped with the version that introduced them: the Facts
// projection of a delta subscription, evaluated on the subscriber's
// side. The channel closes when ctx is cancelled, the session closes, or
// the subscriber lags WatchBuffer versions behind ingestion. Events
// replay nothing: use FactsSince to catch up (or Feed to catch up and
// follow without a gap). An ingest (or eviction) that changes an
// existing fact's winning record in place delivers that fact again at
// its new state.
func (s *Session) Watch(ctx context.Context) <-chan FactEvent {
	return project(ctx, s, CounterWatchDrops, func(ev DeltaEvent) []FactEvent {
		return ev.Facts(s.opt.Tau)
	})
}

// count adds to a session counter, when accounting is attached.
func (s *Session) count(name string, delta int64) {
	if s.opt.Counters != nil {
		s.opt.Counters.Add(name, delta)
	}
}

// isClosed reports whether Close has run — background consumers (the
// analytics tracker) use it to tell shutdown apart from a lag drop.
func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// adoptCompacted publishes a compacted tree back into the session. If
// snap is still the current version, the current snapshot is swapped
// for one holding the compacted tree at the same version — no new
// version, no delta, no subscriber traffic, and persistence is
// untouched (the durable log stores leaves, not layouts). The swap is
// content-neutral: the caller (compact) checks the tree's content
// against snap's before offering it, and the new handle carries snap's
// counts and identity over. Returns false when snap has been superseded
// by a newer version, or when the session is closed.
func (s *Session) adoptCompacted(snap *Snapshot, compacted *store.Tree) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.cur != snap {
		return false
	}
	if compacted.Len() != snap.tree.Len() {
		return false // defense in depth: never adopt a tree of different size
	}
	s.cur = &Snapshot{tree: compacted, version: snap.version, content: snap.content}
	s.loose = 0
	return true
}

// Close ends the session: subscribers' channels close, and further
// Ingest and Evict calls return ErrSessionClosed. Snapshots (including
// the final one, still available via Snapshot) remain valid.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.subs.close()
	return nil
}
