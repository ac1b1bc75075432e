package qkbfly

// Internal tests for the ingest path's compaction: the run-count bound
// holds after every ingest, compacted trees are content-identical to
// their sources, a compaction whose version was superseded while it ran
// is never adopted, and a broken merge is refused.

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/stats"
)

// maintBuilder is a deterministic, pipeline-free ShardBuilder: one tiny
// KB shard per document, keyed by the document ID. It keeps maintenance
// tests fast and precise — the invariants under test live entirely in
// the tree and session layers.
type maintBuilder struct{}

func (maintBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error) {
	shards := make([]*store.KB, len(docs))
	for i, d := range docs {
		// Shard content must depend only on the document (determinism
		// across batch splits), so the per-doc confidence is derived from
		// the ID, never the batch position.
		var n int
		fmt.Sscanf(d.ID, "m%03d", &n)
		kb := store.New()
		kb.AddEntity(store.EntityRecord{ID: d.ID, Name: d.ID, Types: []string{"doc"}})
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: d.ID},
			Relation:   "mentions",
			Objects:    []store.Value{{Literal: d.Text}},
			Confidence: 0.5 + float64(n%5)/10,
			Source:     store.Provenance{DocID: d.ID},
		})
		// A shared key across documents so deferral also exercises
		// cross-run winner resolution (later docs shadow earlier ones).
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: "corpus"},
			Relation:   "latest",
			Objects:    []store.Value{{Literal: "doc"}},
			Confidence: 0.9,
			Source:     store.Provenance{DocID: d.ID},
		})
		shards[i] = kb
	}
	return shards, &BuildStats{Parallelism: 1, PerDocElapsed: make([]time.Duration, len(docs))}, nil
}

func maintDocs(n, from int) []*nlp.Document {
	docs := make([]*nlp.Document, n)
	for i := range docs {
		docs[i] = &nlp.Document{ID: fmt.Sprintf("m%03d", from+i), Text: fmt.Sprintf("text %d", from+i)}
	}
	return docs
}

// flatKB is the one-shot flat merge of docs' shards, in order — what
// every session version must hold.
func flatKB(t *testing.T, docs []*nlp.Document) *store.KB {
	t.Helper()
	shards, _, err := maintBuilder{}.BuildShardsContext(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	kb := store.New()
	for _, sh := range shards {
		kb.Merge(sh)
	}
	return kb
}

// TestMaintCompactBoundsRuns: over single-document ingests, every
// version compacts once it has minLooseRuns loose runs, so after each
// ingest the current tree stays within the O(log W) bound plus fewer
// loose runs than the trigger, and holds exactly the flat merge of the
// documents so far — including the cross-run winner of a key every
// document shares.
func TestMaintCompactBoundsRuns(t *testing.T) {
	ctx := context.Background()
	counters := stats.NewCounterSet()
	s := Open(maintBuilder{}, SessionOptions{Counters: counters})
	defer s.Close()

	const n = 48
	for i := 0; i < n; i++ {
		if _, _, err := s.Ingest(ctx, maintDocs(1, i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		snap := s.Snapshot()
		if got, bound := snap.Tree().RunCount(), bits.Len(uint(i+1))+minLooseRuns-1; got > bound {
			t.Fatalf("ingest %d: %d runs exceed the bound %d", i, got, bound)
		}
		if snap.Fingerprint() != flatKB(t, maintDocs(i+1, 0)).Fingerprint() {
			t.Fatalf("ingest %d: KB differs from the flat merge", i)
		}
	}
	if got := counters.Get(CounterMaintCompactions); got == 0 {
		t.Fatal("no compaction was adopted")
	}
	if got := counters.Get(CounterMaintVerifyFails); got != 0 {
		t.Fatalf("verify failures = %d, want 0", got)
	}
	latest := store.Fact{Subject: store.Value{EntityID: "corpus"}, Relation: "latest", Objects: []store.Value{{Literal: "doc"}}}
	got, ok := s.Snapshot().Tree().Lookup(store.FactKey(&latest))
	var want store.Fact
	for _, f := range flatKB(t, maintDocs(n, 0)).Facts() {
		if store.FactKey(&f) == store.FactKey(&latest) {
			want = f
		}
	}
	if !ok || got.Source != want.Source || got.Confidence != want.Confidence {
		t.Fatalf("cross-run winner %+v, flat merge has %+v", got, want)
	}
}

// TestMaintCompactSupersededMidJob: a compaction whose version is
// superseded while it merges is not adopted — the newer version's own
// compaction is, and the content is the newer version's.
func TestMaintCompactSupersededMidJob(t *testing.T) {
	ctx := context.Background()
	counters := stats.NewCounterSet()
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed check must not leave version 1's ingest blocked
	var first atomic.Bool
	merge := func(a, b *store.Segment) *store.Segment {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return store.MergeSegments(a, b)
	}
	s := Open(mergeBuilder{merge: merge}, SessionOptions{Counters: counters})
	defer s.Close()

	// Version 1 leaves minLooseRuns loose runs; its compaction holds in
	// its first merge until version 2 has published and compacted.
	v1 := make(chan *Snapshot, 1)
	go func() {
		snap, _, err := s.Ingest(ctx, maintDocs(minLooseRuns, 0))
		if err != nil {
			t.Error(err)
		}
		v1 <- snap
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("version 1 did not start compacting")
	}
	v2, _, err := s.Ingest(ctx, maintDocs(1, minLooseRuns))
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Snapshot()
	if cur.Version() != 2 || cur == v2 || cur.Tree().RunCount() != 2 {
		t.Fatalf("version 2 not compacted: v%d with %d runs", cur.Version(), cur.Tree().RunCount())
	}
	unblock()
	if snap := <-v1; snap.Version() != 1 || snap.Tree().RunCount() != minLooseRuns {
		t.Fatalf("version 1 ingest returned v%d with %d runs", snap.Version(), snap.Tree().RunCount())
	}
	if got := s.Snapshot(); got != cur {
		t.Fatalf("the superseded compaction replaced version 2 (now v%d, %d runs)", got.Version(), got.Tree().RunCount())
	}
	if got := counters.Get(CounterMaintCompactions); got != 1 {
		t.Fatalf("compactions adopted = %d, want 1 (version 2's)", got)
	}
	if cur.Fingerprint() != v2.Fingerprint() {
		t.Fatal("adoption changed version 2's content")
	}
}

// mergeBuilder is maintBuilder with the merge function the session's
// tree compacts with given by the test. Each document also names a
// shared "corpus" entity after itself, so folding two runs in the wrong
// order changes the merged record's name, and gives it a mention of its
// own, which a merge that drops one loses.
type mergeBuilder struct {
	maintBuilder
	merge func(a, b *store.Segment) *store.Segment
}

func (c mergeBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error) {
	shards, bs, err := c.maintBuilder.BuildShardsContext(ctx, docs, opts...)
	for i, kb := range shards {
		kb.AddEntity(store.EntityRecord{ID: "corpus", Name: docs[i].ID, Mentions: []string{"corpus " + docs[i].ID}})
	}
	return shards, bs, err
}

func (c mergeBuilder) MergeSegments(a, b *store.Segment) *store.Segment { return c.merge(a, b) }

// resealed merges a and b correctly, then reseals the result with edit
// applied to its facts and entity records.
func resealed(a, b *store.Segment, edit func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord)) *store.Segment {
	m := store.MergeSegments(a, b)
	kb := store.MaterializeRuns([]*store.Segment{m})
	var ents []store.EntityRecord
	for _, e := range kb.Entities() {
		rec := *e
		rec.Mentions = append([]string(nil), e.Mentions...)
		ents = append(ents, rec)
	}
	facts, ents := edit(append([]store.Fact(nil), kb.Facts()...), ents)
	out := store.New()
	for _, e := range ents {
		out.AddEntity(e)
	}
	for _, f := range facts {
		out.AddFact(f)
	}
	return store.SealSegment(out, m.ID())
}

// TestMaintRefusesCorruptCompaction: ingests whose compactions go
// through a broken merge — one that drops a fact, swaps its inputs, or
// drops an entity mention — fail the content check every time and
// never swap the session's snapshot: the published trees stay loose,
// and the content matches a session built with the correct merge.
func TestMaintRefusesCorruptCompaction(t *testing.T) {
	corruptions := map[string]func(a, b *store.Segment) *store.Segment{
		"drop-fact": func(a, b *store.Segment) *store.Segment {
			return resealed(a, b, func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord) {
				return facts[1:], ents
			})
		},
		"swap-inputs": func(a, b *store.Segment) *store.Segment { return store.MergeSegments(b, a) },
		"drop-mention": func(a, b *store.Segment) *store.Segment {
			return resealed(a, b, func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord) {
				for i := range ents {
					if n := len(ents[i].Mentions); n > 0 {
						ents[i].Mentions = ents[i].Mentions[:n-1]
						break
					}
				}
				return facts, ents
			})
		},
	}
	ctx := context.Background()
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			counters := stats.NewCounterSet()
			s := Open(mergeBuilder{merge: corrupt}, SessionOptions{Counters: counters})
			defer s.Close()
			plainCounters := stats.NewCounterSet()
			plain := Open(mergeBuilder{merge: store.MergeSegments}, SessionOptions{Counters: plainCounters})
			defer plain.Close()

			const n = 12
			for i := 0; i < n; i++ {
				published, _, err := s.Ingest(ctx, maintDocs(1, i))
				if err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				if _, _, err := plain.Ingest(ctx, maintDocs(1, i)); err != nil {
					t.Fatalf("plain ingest %d: %v", i, err)
				}
				if s.Snapshot() != published {
					t.Fatalf("ingest %d: the published snapshot was swapped", i)
				}
			}
			if got := counters.Get(CounterMaintVerifyFails); got == 0 {
				t.Fatal("no corrupted compaction failed verification")
			}
			if got := counters.Get(CounterMaintCompactions); got != 0 {
				t.Fatalf("%d corrupted compactions were adopted", got)
			}
			if got := plainCounters.Get(CounterMaintCompactions); got == 0 {
				t.Fatal("the correct merge's session adopted no compaction")
			}
			snap := s.Snapshot()
			if got := snap.Tree().RunCount(); got != n {
				t.Fatalf("tree has %d runs, want %d loose leaves", got, n)
			}
			if snap.Fingerprint() != plain.Snapshot().Fingerprint() {
				t.Fatal("session content differs from the correctly merged build")
			}
		})
	}
}
