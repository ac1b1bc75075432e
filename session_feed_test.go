package qkbfly_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
	"qkbfly/internal/stats"
)

// TestFeedFoldReproducesFingerprint is the feed's contract as a
// property: over randomized ingest/evict/slide schedules, for every
// since in [0, cur] — replayed from history, or re-baselined when the
// horizon has passed it — folding the feed's events with Delta.Apply
// from the base at since (from empty after a reset) reproduces the
// session's current fingerprint, through strictly consecutive versions,
// while another goroutine keeps ingesting.
func TestFeedFoldReproducesFingerprint(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const nDocs, scheduled = 16, 10

	for _, limit := range []int{64, 3} { // every since replays; old sinces re-baseline
		for _, seed := range []int64{5, 21} {
			rng := rand.New(rand.NewSource(seed))
			sess := sys.OpenSession(qkbfly.SessionOptions{MaxDocuments: 5, HistoryLimit: limit})
			docs := corpus.Docs(f.world.WikiDataset(nDocs))
			bases := map[uint64]*store.KB{0: store.New()} // version -> KB, the fold's starting points
			next := 0
			for step := 0; step < 8; step++ {
				if surviving := sess.Docs(); next < scheduled && (len(surviving) == 0 || rng.Intn(3) > 0) {
					k := min(1+rng.Intn(2), scheduled-next)
					if _, _, err := sess.Ingest(ctx, docs[next:next+k]); err != nil {
						t.Fatalf("seed %d: ingest: %v", seed, err)
					}
					next += k
				} else {
					sess.Evict(surviving[rng.Intn(len(surviving))])
				}
				snap := sess.Snapshot()
				bases[snap.Version()] = snap.KB()
			}
			scheduledCur := sess.Version()

			// Feeds open while the ingester publishes, so replays and tails
			// split the concurrent versions at arbitrary points.
			ingested := make(chan error, 1)
			go func() {
				for _, d := range docs[scheduled:] {
					if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
						ingested <- err
						return
					}
				}
				ingested <- nil
			}()
			feeds := make([]qkbfly.Feed, scheduledCur+1)
			for since := range feeds {
				feeds[since] = sess.Feed(ctx, qkbfly.FeedStart{
					Since: uint64(since), Tail: true, Drops: qkbfly.CounterDeltaWatchDrops,
				})
			}
			if err := <-ingested; err != nil {
				t.Fatalf("seed %d: concurrent ingest: %v", seed, err)
			}
			final := sess.Snapshot()

			resets := 0
			for since, feed := range feeds {
				name := fmt.Sprintf("limit %d seed %d since %d", limit, seed, since)
				kb, at := bases[uint64(since)], uint64(since)
				if feed.Reset != nil {
					resets++
					if len(feed.Replay) != 0 || feed.Reset.Version() != feed.Cur {
						t.Fatalf("%s: reset at v%d with cur %d and %d replayed versions",
							name, feed.Reset.Version(), feed.Cur, len(feed.Replay))
					}
					d := store.Diff(store.New(), feed.Reset.KB())
					kb, at = d.Apply(store.New()), feed.Cur
				}
				apply := func(ev qkbfly.DeltaEvent) {
					if ev.Version != at+1 || ev.Snap.Version() != ev.Version {
						t.Fatalf("%s: got v%d (snapshot v%d) after v%d", name, ev.Version, ev.Snap.Version(), at)
					}
					kb, at = ev.Delta.Apply(kb), ev.Version
				}
				for _, ev := range feed.Replay {
					apply(ev)
				}
				if at != feed.Cur {
					t.Fatalf("%s: replay ends at v%d, feed says complete up to v%d", name, at, feed.Cur)
				}
				for at < final.Version() {
					select {
					case ev, ok := <-feed.Tail:
						if !ok {
							t.Fatalf("%s: tail closed at v%d, before v%d", name, at, final.Version())
						}
						apply(ev)
					case <-time.After(10 * time.Second):
						t.Fatalf("%s: tail stalled at v%d, before v%d", name, at, final.Version())
					}
				}
				if kb.Fingerprint() != final.Fingerprint() {
					t.Fatalf("%s: folded feed differs from the session at v%d", name, at)
				}
			}
			if limit < int(scheduledCur) && resets == 0 {
				t.Errorf("limit %d seed %d: no feed was forced to re-baseline", limit, seed)
			}
			if limit > int(final.Version()) && resets != 0 {
				t.Errorf("limit %d seed %d: %d feeds re-baselined inside the horizon", limit, seed, resets)
			}
			sess.Close()
		}
	}
}

// wideShards builds docs w0..w(n-1), each a shard of facts distinct
// facts about its own entity at confidence 0.9.
func wideShards(n, facts int) (*stubShardBuilder, []*nlp.Document) {
	b := &stubShardBuilder{shards: map[string]*store.KB{}}
	docs := make([]*nlp.Document, n)
	for i := range docs {
		id := fmt.Sprintf("w%02d", i)
		kb := store.New()
		kb.AddEntity(store.EntityRecord{ID: "E_" + id, Name: id, Mentions: []string{id}})
		for j := 0; j < facts; j++ {
			kb.AddFact(store.Fact{
				Subject:    store.Value{EntityID: "E_" + id},
				Relation:   "numbered",
				Objects:    []store.Value{{Literal: fmt.Sprintf("%s/%d", id, j)}},
				Confidence: 0.9,
				Source:     store.Provenance{DocID: id, SentIndex: j},
			})
		}
		b.shards[id] = kb
		docs[i] = &nlp.Document{ID: id}
	}
	return b, docs
}

var anyFact = &query.Pattern{Clauses: []query.Clause{{
	Subject: query.Var("s"), Predicate: query.Var("r"), Object: query.Var("o"),
}}}

func watchDrops(c *stats.CounterSet) int64 {
	return c.Get(qkbfly.CounterWatchDrops) + c.Get(qkbfly.CounterPatternWatchDrops) + c.Get(qkbfly.CounterDeltaWatchDrops)
}

// TestWatchBufferCountsVersions: one ingest adding more τ-passing facts
// than WatchBuffer reaches a default-buffer Watch and WatchPattern
// subscriber whole — the buffer holds versions, not facts — and drops
// nobody.
func TestWatchBufferCountsVersions(t *testing.T) {
	const facts = 300 // > the default WatchBuffer of 256
	b, docs := wideShards(1, facts)
	counters := stats.NewCounterSet()
	sess := qkbfly.Open(b, qkbfly.SessionOptions{Tau: 0.5, Counters: counters})
	ctx := context.Background()
	plain, rows := sess.Watch(ctx), sess.WatchPattern(ctx, anyFact)
	if _, _, err := sess.Ingest(ctx, docs); err != nil {
		t.Fatal(err)
	}
	sess.Close() // the published version drains, then both channels close
	gotFacts, gotRows := 0, 0
	for range plain {
		gotFacts++
	}
	for range rows {
		gotRows++
	}
	if gotFacts != facts || gotRows != facts {
		t.Errorf("one ingest of %d facts delivered %d facts and %d rows", facts, gotFacts, gotRows)
	}
	if n := watchDrops(counters); n != 0 {
		t.Errorf("%d subscribers dropped: %v", n, counters.Snapshot())
	}
}

// TestWatchPatternLagDropsAfterBufferedVersions: ingestion never waits
// on a standing pattern's subscriber — evaluation and delivery happen
// on the subscription's side — and a subscriber that is not draining is
// dropped only once WatchBuffer versions are waiting for it, counted
// once under session_pattern_watch_drops.
func TestWatchPatternLagDropsAfterBufferedVersions(t *testing.T) {
	const buffer = 4
	b, docs := wideShards(buffer+6, 1)
	counters := stats.NewCounterSet()
	sess := qkbfly.Open(b, qkbfly.SessionOptions{WatchBuffer: buffer, Counters: counters})
	defer sess.Close()
	ctx := context.Background()
	rows := sess.WatchPattern(ctx, anyFact) // never read until the end

	ingest := func(d *nlp.Document) {
		t.Helper()
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range docs[:buffer] {
		ingest(d)
	}
	if n := watchDrops(counters); n != 0 {
		t.Fatalf("dropped with only %d versions undelivered: %v", buffer, counters.Snapshot())
	}
	// The projection holds at most one more version in hand, so the
	// buffer overflows within the next two.
	for _, d := range docs[buffer:] {
		ingest(d)
	}
	if got := counters.Get(qkbfly.CounterPatternWatchDrops); got != 1 || watchDrops(counters) != 1 {
		t.Fatalf("lagging pattern subscriber: counters %v, want exactly one pattern drop", counters.Snapshot())
	}
	delivered := 0
	for range rows { // closed by the drop
		delivered++
	}
	if delivered >= len(docs) {
		t.Errorf("dropped subscriber still received all %d versions", delivered)
	}
}

// TestProjectionGoroutinesExit: the goroutine behind a Watch or
// WatchPattern channel ends when its context is cancelled, when the
// subscriber is dropped for lagging, and when the session closes — in
// each case with matches still undelivered.
func TestProjectionGoroutinesExit(t *testing.T) {
	const buffer = 2
	settle := func(base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	open := func(ingests int) (*qkbfly.Session, context.CancelFunc, <-chan qkbfly.FactEvent, <-chan qkbfly.PatternEvent) {
		t.Helper()
		b, docs := wideShards(ingests, 3)
		sess := qkbfly.Open(b, qkbfly.SessionOptions{Tau: -1, WatchBuffer: buffer})
		ctx, cancel := context.WithCancel(context.Background())
		plain, rows := sess.Watch(ctx), sess.WatchPattern(ctx, anyFact)
		for _, d := range docs {
			if _, _, err := sess.Ingest(ctx, []*nlp.Document{d}); err != nil {
				t.Fatal(err)
			}
		}
		return sess, cancel, plain, rows
	}
	base := runtime.NumGoroutine()

	// Cancelled with one version's matches half delivered.
	sess, cancel, plain, rows := open(1)
	<-plain
	<-rows
	cancel()
	settle(base)
	sess.Close()

	// Dropped: nobody reads, and the buffer overflows.
	sess, cancel, _, _ = open(buffer + 2)
	settle(base)
	sess.Close()
	cancel()

	// Closed: the published version still drains to a reader, then ends.
	sess, cancel, plain, rows = open(1)
	sess.Close()
	for range plain {
	}
	for range rows {
	}
	settle(base)
	cancel()
}
