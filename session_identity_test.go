package qkbfly_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/nlp"
	"qkbfly/internal/replica"
	"qkbfly/internal/sched"
	"qkbfly/internal/stats"
)

// identityShards builds docs i000..i(n-1) over a small shared vocabulary
// — six entities, three relations, three literals, each relation and
// literal spelled in either case — so consecutive versions add, upgrade,
// downgrade, remove and respell facts and change entity records.
func identityShards(n int, seed int64) (*stubShardBuilder, []*nlp.Document) {
	rng := rand.New(rand.NewSource(seed))
	spell := func(s string) string {
		if rng.Intn(2) == 0 {
			return strings.ToUpper(s)
		}
		return s
	}
	b := &stubShardBuilder{shards: map[string]*store.KB{}}
	docs := make([]*nlp.Document, n)
	for i := range docs {
		id := fmt.Sprintf("i%03d", i)
		kb := store.New()
		for j := 0; j < 1+rng.Intn(3); j++ {
			e := fmt.Sprintf("E%d", rng.Intn(6))
			kb.AddEntity(store.EntityRecord{
				ID: e, Name: "entity " + e, Emerging: rng.Intn(2) == 0,
				Mentions: []string{e, fmt.Sprintf("m%d", rng.Intn(4))},
				Types:    []string{fmt.Sprintf("T%d", rng.Intn(3))},
			})
		}
		for j := 0; j < 2+rng.Intn(5); j++ {
			kb.AddFact(store.Fact{
				Subject:    store.Value{EntityID: fmt.Sprintf("E%d", rng.Intn(6))},
				Relation:   spell(fmt.Sprintf("rel%d", rng.Intn(3))),
				Pattern:    fmt.Sprintf("pat-%s-%d", id, j),
				Objects:    []store.Value{{Literal: spell(fmt.Sprintf("lit%d", rng.Intn(3)))}},
				Confidence: float64(1+rng.Intn(9)) / 10,
				Source:     store.Provenance{DocID: id, SentIndex: j},
			})
		}
		b.shards[id] = kb
		docs[i] = &nlp.Document{ID: id}
	}
	return b, docs
}

// checkIdentity asserts a snapshot's carried identity and counts against
// the from-scratch values of its materialized KB.
func checkIdentity(t *testing.T, label string, sess *qkbfly.Session, snap *qkbfly.Snapshot) {
	t.Helper()
	kb := snap.KB()
	want := replica.FingerprintSHA(kb)
	if got := snap.ContentID(); got != want {
		t.Fatalf("%s v%d: folded identity %.16s…, KB identity %.16s…", label, snap.Version(), got, want)
	}
	if got := qkbfly.FingerprintSHAHex(snap.Fingerprint()); got != want {
		t.Fatalf("%s v%d: fingerprint-text identity %.16s…, KB identity %.16s…", label, snap.Version(), got, want)
	}
	if snap.FactCount() != kb.Len() || snap.EntityCount() != len(kb.Entities()) {
		t.Fatalf("%s v%d: carried counts %d facts / %d entities, KB has %d / %d",
			label, snap.Version(), snap.FactCount(), snap.EntityCount(), kb.Len(), len(kb.Entities()))
	}
}

// TestIdentityFoldMatchesFingerprint is the folded identity's contract
// as a property: over randomized schedules of ingests, evictions, window
// slides, adopted background compactions and durable restarts, every
// version's carried identity equals the identity of its materialized KB
// and of its fingerprint text, and its carried counts equal the KB's —
// for the live snapshot after every step (including a compacted handle
// swapped in at the same version), and for every version a Feed replays.
func TestIdentityFoldMatchesFingerprint(t *testing.T) {
	ctx := context.Background()
	restores := 0
	for _, seed := range []int64{1, 2, 3} {
		label := fmt.Sprintf("seed %d", seed)
		b, docs := identityShards(60, seed)
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		counters := stats.NewCounterSet()
		sc := sched.New(sched.Options{Workers: 1, Counters: counters})

		var (
			sess  *qkbfly.Session
			maint *qkbfly.Maintainer
			p     *persist.Store
		)
		open := func() {
			var rec *persist.Recovered
			var err error
			if p, rec, err = persist.Open(dir, persist.Options{Logf: t.Logf}); err != nil {
				t.Fatalf("%s: open store: %v", label, err)
			}
			opts := qkbfly.SessionOptions{MaxDocuments: 6, DeferCompaction: true, Persist: p, Counters: counters}
			if rec.Version == 0 {
				sess = qkbfly.Open(b, opts)
			} else if sess, err = qkbfly.Restore(b, opts, restoreState(rec)); err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			maint = qkbfly.NewMaintainer(sess, sc, qkbfly.MaintainerOptions{Counters: counters})
		}
		open()

		since := uint64(0) // the oldest version the current session can replay from
		next := 0
		for step := 0; step < 40 && next < len(docs); step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				k := min(1+rng.Intn(3), len(docs)-next)
				snap, _, err := sess.Ingest(ctx, docs[next:next+k])
				if err != nil {
					t.Fatalf("%s: ingest: %v", label, err)
				}
				next += k
				checkIdentity(t, label+" ingest", sess, snap)
			case r < 7:
				if live := sess.Docs(); len(live) > 0 {
					snap, _ := sess.Evict(live[rng.Intn(len(live))])
					checkIdentity(t, label+" evict", sess, snap)
				}
			case r < 9:
				sc.Drain() // let a pending compaction land and be adopted
				checkIdentity(t, label+" compacted", sess, sess.Snapshot())
			default:
				maint.Close()
				sc.Drain()
				sess.Close()
				p.Flush()
				if err := p.Close(); err != nil {
					t.Fatalf("%s: close store: %v", label, err)
				}
				open()
				restores++
				since = sess.Version()
				checkIdentity(t, label+" restored", sess, sess.Snapshot())
			}
		}

		feed := sess.Feed(ctx, qkbfly.FeedStart{Since: since})
		if feed.Reset != nil || feed.Cur != sess.Version() {
			t.Fatalf("%s: feed from v%d reset=%v cur=%d, want a replay to v%d",
				label, since, feed.Reset != nil, feed.Cur, sess.Version())
		}
		for _, ev := range feed.Replay {
			checkIdentity(t, label+" replayed", sess, ev.Snap)
		}
		maint.Close()
		sc.Close()
		sess.Close()
		p.Close()
		if counters.Get(qkbfly.CounterMaintCompactions) == 0 {
			t.Errorf("%s: no background compaction was adopted; the schedule does not cover adoption", label)
		}
		if n := counters.Get(qkbfly.CounterMaintVerifyFails); n != 0 {
			t.Errorf("%s: %d compactions failed the identity check", label, n)
		}
	}
	if restores == 0 {
		t.Error("no schedule restarted the session; the schedules do not cover Restore")
	}
}

// TestIdentityFoldAcrossBackstops: with deferred compaction and no
// Maintainer, every compactionDebt-th ingest compacts inline; the
// versions it publishes carry the same folded identity and counts as
// their KBs.
func TestIdentityFoldAcrossBackstops(t *testing.T) {
	b, docs := identityShards(140, 4)
	counters := stats.NewCounterSet()
	sess := qkbfly.Open(b, qkbfly.SessionOptions{MaxDocuments: 8, DeferCompaction: true, Counters: counters, HistoryLimit: -1})
	defer sess.Close()
	for i, d := range docs {
		snap, _, err := sess.Ingest(context.Background(), []*nlp.Document{d})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		checkIdentity(t, "backstop", sess, snap)
	}
	if counters.Get(qkbfly.CounterCompactBackstops) < 2 {
		t.Fatalf("%d backstops over %d single-document ingests", counters.Get(qkbfly.CounterCompactBackstops), len(docs))
	}
}
