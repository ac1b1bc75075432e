package qkbfly_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
)

// horizonShards builds n distinct one-fact shards keyed h0..h(n-1), so
// each ingest publishes exactly one version with one added fact.
func horizonShards(n int) (*stubShardBuilder, []*nlp.Document) {
	b := &stubShardBuilder{shards: map[string]*store.KB{}}
	docs := make([]*nlp.Document, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("h%02d", i)
		kb := store.New()
		kb.AddEntity(store.EntityRecord{ID: "E_" + id, Name: id, Mentions: []string{id}})
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: "E_" + id},
			Relation:   "numbered",
			Objects:    []store.Value{{Literal: id}},
			Confidence: 0.9,
			Source:     store.Provenance{DocID: id},
		})
		b.shards[id] = kb
		docs[i] = &nlp.Document{ID: id}
	}
	return b, docs
}

// TestSessionHorizonExactEdge pins the replay horizon contract at its
// boundary: with HistoryLimit L after N ingests the retained versions
// are N-L+1..N, so since = N-L is the oldest replayable point (it asks
// for exactly the retained versions), and since = N-L-1 is the first
// value that must report a horizon miss. Replication leans on this
// being exact: a follower resuming at the horizon must not be forced
// into a snapshot re-baseline it does not need.
func TestSessionHorizonExactEdge(t *testing.T) {
	const n, limit = 10, 4
	b, docs := horizonShards(n)
	sess := qkbfly.Open(b, qkbfly.SessionOptions{HistoryLimit: limit})
	defer sess.Close()
	ctx := context.Background()
	for _, d := range docs {
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	cur := sess.Version()
	if cur != n {
		t.Fatalf("session at v%d after %d ingests", cur, n)
	}
	edge := cur - limit // oldest replayable since

	// Exactly at the horizon: full replay of the retained window.
	for name, call := range map[string]func(uint64) (int, uint64, bool){
		"FactsSince": func(v uint64) (int, uint64, bool) {
			evs, c, ok := sess.FactsSince(v)
			return len(evs), c, ok
		},
		"DeltaSince": func(v uint64) (int, uint64, bool) {
			ds, c, ok := sess.DeltaSince(v)
			return len(ds), c, ok
		},
		"DeltaRecordsSince": func(v uint64) (int, uint64, bool) {
			rs, c, ok := sess.DeltaRecordsSince(v)
			return len(rs), c, ok
		},
	} {
		n, c, ok := call(edge)
		if !ok || c != cur {
			t.Errorf("%s(%d) at horizon: ok=%t cur=%d, want ok cur=%d", name, edge, ok, c, cur)
		}
		if n != limit {
			t.Errorf("%s(%d) replayed %d versions, want %d", name, edge, n, limit)
		}
		// One below: gone.
		if _, c, ok := call(edge - 1); ok || c != cur {
			t.Errorf("%s(%d) below horizon: ok=%t cur=%d, want miss with cur=%d", name, edge-1, ok, c, cur)
		}
		// At and beyond the current version: trivially complete, never a miss.
		for _, v := range []uint64{cur, cur + 5} {
			n, c, ok := call(v)
			if !ok || n != 0 || c != cur {
				t.Errorf("%s(%d): ok=%t n=%d cur=%d, want ok empty cur=%d", name, v, ok, n, c, cur)
			}
		}
	}
}

// TestSessionHistoryDisabledReplayContract: negative HistoryLimit means
// every since behind the current version is a horizon miss (reset), and
// since >= cur stays trivially complete — the degenerate contract a
// leader running without replay history still owes its followers.
func TestSessionHistoryDisabledReplayContract(t *testing.T) {
	b, docs := horizonShards(3)
	sess := qkbfly.Open(b, qkbfly.SessionOptions{HistoryLimit: -1})
	defer sess.Close()
	ctx := context.Background()
	for _, d := range docs {
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	cur := sess.Version()
	if _, _, ok := sess.DeltaSince(cur - 1); ok {
		t.Error("DeltaSince(cur-1) should miss with history disabled")
	}
	if _, _, ok := sess.DeltaRecordsSince(cur - 1); ok {
		t.Error("DeltaRecordsSince(cur-1) should miss with history disabled")
	}
	if recs, c, ok := sess.DeltaRecordsSince(cur); !ok || len(recs) != 0 || c != cur {
		t.Errorf("DeltaRecordsSince(cur) = %d recs, cur=%d, ok=%t", len(recs), c, ok)
	}
}

// TestSessionDeltaRecordsChainApply is the induction step of replicated
// fingerprint verification, asserted directly against the session API:
// applying the stamped delta chain from an empty KB reproduces, at
// every version, exactly the fingerprint the leader stamped on that
// record — including versions that removed documents.
func TestSessionDeltaRecordsChainApply(t *testing.T) {
	b, docs := horizonShards(6)
	sess := qkbfly.Open(b, qkbfly.SessionOptions{HistoryLimit: 64})
	defer sess.Close()
	ctx := context.Background()
	for _, d := range docs {
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	// A removal-only version: the chain must verify across it too.
	if _, evicted := sess.Evict("h02"); evicted != 1 {
		t.Fatalf("evict removed %d docs, want 1", evicted)
	}

	recs, cur, ok := sess.DeltaRecordsSince(0)
	if !ok || cur != sess.Version() {
		t.Fatalf("DeltaRecordsSince(0): ok=%t cur=%d", ok, cur)
	}
	if len(recs) != 7 { // 6 ingests + 1 eviction
		t.Fatalf("got %d records, want 7", len(recs))
	}
	kb := store.New()
	for i, rec := range recs {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d is v%d, want contiguous v%d", i, rec.Version, i+1)
		}
		kb = rec.Delta.Apply(kb)
		if got := qkbfly.FingerprintSHAHex(kb.Fingerprint()); got != rec.FingerprintSHA {
			t.Fatalf("chain diverged at v%d: applied sha %.12s, stamped %.12s", rec.Version, got, rec.FingerprintSHA)
		}
	}
	if kb.Fingerprint() != sess.Snapshot().Fingerprint() {
		t.Error("chain-applied KB differs from the session head")
	}
}

// TestSessionHorizonResetRebase: the documented recovery from a horizon
// miss — take a full Snapshot, diff it from empty, apply that reset to
// a fresh KB — must land exactly on the served version's fingerprint.
// This is the reset-record contract /deltas implements.
func TestSessionHorizonResetRebase(t *testing.T) {
	b, docs := horizonShards(9)
	sess := qkbfly.Open(b, qkbfly.SessionOptions{HistoryLimit: 2})
	defer sess.Close()
	ctx := context.Background()
	for _, d := range docs[:8] {
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := sess.DeltaRecordsSince(1); ok {
		t.Fatal("since=1 should be behind the horizon with HistoryLimit=2")
	}
	snap := sess.Snapshot()
	reset := store.Diff(store.New(), snap.KB())
	rebased := reset.Apply(store.New())
	if got, want := qkbfly.FingerprintSHAHex(rebased.Fingerprint()), snap.ContentID(); got != want {
		t.Fatalf("reset re-base sha %.12s, want %.12s", got, want)
	}
	// After the re-base, resuming by delta from the snapshot version works.
	if _, _, err := sess.Ingest(ctx, []*nlp.Document{docs[8]}); err != nil {
		t.Fatal(err)
	}
	if recs, _, ok := sess.DeltaRecordsSince(snap.Version()); !ok {
		t.Error("resume at the re-based version fell behind the horizon immediately")
	} else {
		base := rebased
		for _, rec := range recs {
			base = rec.Delta.Apply(base)
			if got := qkbfly.FingerprintSHAHex(base.Fingerprint()); got != rec.FingerprintSHA {
				t.Fatalf("post-rebase chain diverged at v%d", rec.Version)
			}
		}
	}
}

// TestSessionHistoryReleasesDroppedVersions: once a version falls out of
// the retained history its diff and merge tree are garbage — trimming
// the history must not keep the dropped entries reachable — while the
// replay horizon still moves exactly one version per publish.
func TestSessionHistoryReleasesDroppedVersions(t *testing.T) {
	const limit, n = 4, 13
	b, docs := horizonShards(n)
	sess := qkbfly.Open(b, qkbfly.SessionOptions{HistoryLimit: limit})
	defer sess.Close()
	ctx := context.Background()
	var trees []weak.Pointer[store.Tree] // by version - 1
	for _, d := range docs {
		snap, _, err := sess.Ingest(ctx, []*nlp.Document{d})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, weak.Make(snap.Tree()))
		cur := snap.Version()
		if _, _, ok := sess.DeltaSince(cur - min(cur, limit)); !ok {
			t.Fatalf("v%d: since=%d fell behind the horizon", cur, cur-min(cur, limit))
		}
		if _, _, ok := sess.DeltaSince(cur - limit - 1); ok && cur > limit {
			t.Fatalf("v%d: since=%d is still replayable past HistoryLimit %d", cur, cur-limit-1, limit)
		}
	}
	runtime.GC()
	runtime.GC()
	for v := 1; v <= n-limit; v++ {
		if trees[v-1].Value() != nil {
			t.Errorf("v%d's merge tree is still reachable after it left the history (head v%d, limit %d)", v, n, limit)
		}
	}
}
