package qkbfly_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/analytics"
	"qkbfly/internal/corpus"
	"qkbfly/internal/stats"
)

func analyticsJSON(t *testing.T, s *analytics.Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	return string(b)
}

// TestSessionAnalyticsFoldMatchesRecompute is the subsystem's acceptance
// property: over a corpus-backed session running a sliding window,
// with the compactions its ingests run, and an explicit eviction, the
// delta-folded analytics state is byte-identical to a full recompute
// over Materialize() at EVERY published version — including
// eviction-only versions and versions whose trees were compacted right
// after publishing — and every adopted compaction passed the content
// check.
func TestSessionAnalyticsFoldMatchesRecompute(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	counters := stats.NewCounterSet()

	sess := sys.OpenSession(qkbfly.SessionOptions{
		MaxDocuments: 6,
		Counters:     counters,
	})
	defer sess.Close()

	// Reference fold: our own delta subscription, attached before any
	// ingest, checked against full recompute at every version.
	events := sess.WatchDeltas(ctx)
	st := analytics.New(0)

	// The production tracker rides the same stream; its end state is
	// checked after the feed.
	tracker := qkbfly.NewAnalyticsTracker(sess, qkbfly.AnalyticsOptions{Counters: counters})
	defer tracker.Close()

	docs := corpus.Docs(f.world.WikiDataset(12))
	rng := rand.New(rand.NewSource(17))
	for start := 0; start < len(docs); {
		end := start + 1 + rng.Intn(3)
		if end > len(docs) {
			end = len(docs)
		}
		if _, _, err := sess.Ingest(ctx, docs[start:end]); err != nil {
			t.Fatalf("ingest [%d:%d): %v", start, end, err)
		}
		start = end
	}
	// An eviction-only version: removals (and possible in-place
	// downgrades) with no additions.
	if _, n := sess.Evict(sess.Docs()[0]); n != 1 {
		t.Fatalf("evict removed %d documents, want 1", n)
	}
	finalV := sess.Version()

	// Check every published version against the full-scan reference.
	sawEvictionOnly := false
	for st.Version() < finalV {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("delta stream dropped at version %d", st.Version())
			}
			if _, err := st.Apply(ev.Version, &ev.Delta); err != nil {
				t.Fatalf("fold version %d: %v", ev.Version, err)
			}
			got := analyticsJSON(t, st.Summary())
			want := analyticsJSON(t, analytics.Compute(ev.Snap.KB(), ev.Version))
			if got != want {
				t.Fatalf("version %d: folded analytics diverge from recompute:\n got %s\nwant %s", ev.Version, got, want)
			}
			if len(ev.Delta.Added) == 0 && len(ev.Delta.Removed) > 0 {
				sawEvictionOnly = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled waiting for version %d of %d", st.Version()+1, finalV)
		}
	}
	if !sawEvictionOnly {
		t.Error("feed produced no eviction-only version; property not fully exercised")
	}

	// Compaction must actually have run and adopted — with a passing
	// content check — so the feed above ran over compacted trees.
	if got := counters.Get(qkbfly.CounterMaintCompactions); got == 0 {
		t.Fatal("no compaction adopted during the feed")
	}
	if got := counters.Get(qkbfly.CounterMaintVerifyFails); got != 0 {
		t.Fatalf("compaction verify failures = %d, want 0", got)
	}

	// The production tracker converged to the same state.
	deadline := time.Now().Add(10 * time.Second)
	for tracker.Version() < finalV {
		if time.Now().After(deadline) {
			t.Fatalf("tracker stalled at version %d of %d", tracker.Version(), finalV)
		}
		time.Sleep(time.Millisecond)
	}
	sum, id, _ := tracker.Summary()
	if got, want := analyticsJSON(t, sum), analyticsJSON(t, analytics.Compute(sess.Snapshot().KB(), finalV)); got != want {
		t.Fatalf("tracker summary diverges from recompute:\n got %s\nwant %s", got, want)
	}
	if want := sess.Snapshot().Identity(); id != want {
		t.Errorf("tracker summary identity %s, want the snapshot's %s", id.Hex(), want.Hex())
	}
	if _, _, cached := tracker.Summary(); !cached {
		t.Error("second Summary call missed the per-version cache")
	}
	if g := tracker.Growth(); len(g) == 0 || g[len(g)-1].Version != finalV {
		t.Fatalf("growth history = %d records (last %v), want tail at version %d", len(g), g, finalV)
	}

	// And the deferred+maintained session still matches a one-shot build
	// over the surviving documents — compaction never changed content.
	final := sess.Snapshot()
	refSess := sys.OpenSession(qkbfly.SessionOptions{})
	defer refSess.Close()
	fresh := corpus.Docs(f.world.WikiDataset(12))
	byID := make(map[string]int, len(fresh))
	for i, d := range fresh {
		byID[d.ID] = i
	}
	for _, id := range sess.Docs() {
		if _, _, err := refSess.Ingest(ctx, fresh[byID[id]:byID[id]+1]); err != nil {
			t.Fatalf("reference ingest %s: %v", id, err)
		}
	}
	if final.Fingerprint() != refSess.Snapshot().Fingerprint() {
		t.Fatal("deferred+maintained session KB differs from a fresh build over the survivors")
	}
}

// TestSessionAnalyticsWatchStream: WatchAnalytics delivers one analytic
// delta per published version, in order, with running totals matching
// the tracker's folded state.
func TestSessionAnalyticsWatchStream(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()

	sess := sys.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	tracker := qkbfly.NewAnalyticsTracker(sess, qkbfly.AnalyticsOptions{})
	defer tracker.Close()
	stream := tracker.WatchAnalytics(ctx)

	docs := corpus.Docs(f.world.WikiDataset(6))
	for i := range docs {
		if _, _, err := sess.Ingest(ctx, docs[i:i+1]); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	for want := uint64(1); want <= uint64(len(docs)); want++ {
		select {
		case vd := <-stream:
			if vd.Version != want {
				t.Fatalf("stream delivered version %d, want %d", vd.Version, want)
			}
			if vd.Added == 0 && vd.Upgraded == 0 {
				t.Fatalf("version %d analytic delta is empty: %+v", want, vd)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stream stalled before version %d", want)
		}
	}
	sum, _, _ := tracker.Summary()
	if sum.Version != uint64(len(docs)) || sum.Facts == 0 || len(sum.Predicates) == 0 {
		t.Fatalf("final summary %+v looks empty", sum)
	}
}
