package replica_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/nlp"
	"qkbfly/internal/replica"
	"qkbfly/internal/serve"
)

func persistOpen(dir string) (*persist.Store, *persist.Recovered, error) {
	return persist.Open(dir, persist.Options{Logf: discardLogf})
}

// ---------------------------------------------------------------------------
// Stub builder: deterministic synthetic shards, no NLP pipeline — the
// replication protocol is exercised against real sessions and real
// serve handlers, but per-document build cost is microseconds.
// ---------------------------------------------------------------------------

type stubBuilder struct{}

func (stubBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	shards := make([]*store.KB, len(docs))
	perDoc := make([]time.Duration, len(docs))
	for i, d := range docs {
		kb := store.New()
		kb.AddEntity(store.EntityRecord{ID: "E_" + d.ID, Name: d.ID, Mentions: []string{d.ID}, Types: []string{"DOC"}})
		// Every document also mentions one shared entity and restates one
		// shared fact, at a confidence that rises with the ID's number, so
		// consecutive versions change an entity record and upgrade a fact.
		kb.AddEntity(store.EntityRecord{ID: "E_shared", Name: "shared", Mentions: []string{d.ID}, Types: []string{"DOC"}})
		n, _ := strconv.Atoi(strings.TrimLeft(d.ID, "abcdefghijklmnopqrstuvwxyz"))
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: "E_shared"},
			Relation:   "seen_in",
			Objects:    []store.Value{{Literal: "stream"}},
			Confidence: 0.1 + float64(n%80)/100,
			Source:     store.Provenance{DocID: d.ID},
		})
		for j := 0; j < 3; j++ {
			kb.AddFact(store.Fact{
				Subject:    store.Value{EntityID: "E_" + d.ID},
				Relation:   "rel_" + strconv.Itoa(j),
				Pattern:    "rel_" + strconv.Itoa(j),
				Objects:    []store.Value{{Literal: d.Text + "#" + strconv.Itoa(j)}},
				Confidence: 0.5 + 0.1*float64(j),
				Source:     store.Provenance{DocID: d.ID, SentIndex: j},
			})
		}
		shards[i] = kb
		perDoc[i] = time.Microsecond
	}
	return shards, &qkbfly.BuildStats{Documents: len(docs), Parallelism: 1, PerDocElapsed: perDoc}, nil
}

func doc(id string) *nlp.Document {
	return &nlp.Document{ID: id, Title: id, Source: "news", Text: "text of " + id}
}

// newLeader opens a session over the stub builder and serves it over a
// real HTTP handler (the exact /deltas path followers use in prod).
func newLeader(t *testing.T, opts qkbfly.SessionOptions) (*qkbfly.Session, *httptest.Server) {
	t.Helper()
	sess := qkbfly.Open(stubBuilder{}, opts)
	t.Cleanup(func() { sess.Close() })
	ts := httptest.NewServer(serve.NewHandler(serve.New(nil, serve.Options{}),
		serve.HandlerOptions{Session: sess}))
	t.Cleanup(ts.Close)
	return sess, ts
}

// httpDial is the plain HTTP transport the fault injector wraps.
func httpDial(client *http.Client) replica.DialFunc {
	return func(ctx context.Context, rawURL string) (io.ReadCloser, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("status %s", resp.Status)
		}
		return resp.Body, nil
	}
}

func discardLogf(string, ...any) {}

// ---------------------------------------------------------------------------
// Fault-injecting transport: drops, duplicates, reorders, delays and
// truncates stream records between a real leader and a real follower.
// ---------------------------------------------------------------------------

type faultyTransport struct {
	base                                  replica.DialFunc
	seed                                  int64
	dials                                 atomic.Int64
	injected                              atomic.Int64 // records dropped, duplicated, reordered or truncated
	pDrop, pDup, pReorder, pDelay, pTrunc float64
}

func (ft *faultyTransport) dial(ctx context.Context, rawURL string) (io.ReadCloser, error) {
	rc, err := ft.base(ctx, rawURL)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(ft.seed + ft.dials.Add(1)))
	pr, pw := io.Pipe()
	go func() {
		defer rc.Close()
		br := bufio.NewReader(rc)
		var held []byte // one record delayed past its successor (reorder)
		write := func(b []byte) bool {
			_, werr := pw.Write(b)
			return werr == nil
		}
		for {
			line, rerr := br.ReadBytes('\n')
			if rerr != nil {
				if held != nil {
					write(held)
				}
				pw.CloseWithError(rerr)
				return
			}
			r := rng.Float64()
			p := ft.pDrop
			switch {
			case r < p: // drop this record
				ft.injected.Add(1)
				continue
			case r < p+ft.pDup: // deliver twice
				ft.injected.Add(1)
				if !write(line) || !write(line) {
					return
				}
			case r < p+ft.pDup+ft.pReorder: // hold until after the next record
				if held == nil {
					ft.injected.Add(1)
					held = append([]byte(nil), line...)
					continue
				}
				if !write(line) {
					return
				}
			case r < p+ft.pDup+ft.pReorder+ft.pTrunc: // cut mid-record, close
				ft.injected.Add(1)
				if len(line) > 2 {
					write(line[:len(line)/2])
				}
				pw.CloseWithError(io.EOF)
				return
			case r < p+ft.pDup+ft.pReorder+ft.pTrunc+ft.pDelay:
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				if !write(line) {
					return
				}
			default:
				if !write(line) {
					return
				}
			}
			if held != nil {
				h := held
				held = nil
				if !write(h) {
					return
				}
			}
		}
	}()
	return pr, nil
}

// corruptingTransport rewrites the first delta record corrupt applies
// to (corrupt reports whether it changed anything) — valid JSON, valid
// version — so only identity verification can catch it. Snapshot dials
// (the resync after a quarantine) wait until resync is closed, so a
// test can inspect the follower in between.
type corruptingTransport struct {
	base      replica.DialFunc
	corrupt   func(rec *replica.Record) bool
	corrupted atomic.Uint64 // the corrupted record's version; 0 until then
	resync    chan struct{}
}

func (ct *corruptingTransport) dial(ctx context.Context, rawURL string) (io.ReadCloser, error) {
	if strings.Contains(rawURL, "snapshot=1") {
		select {
		case <-ct.resync:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	rc, err := ct.base(ctx, rawURL)
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go func() {
		defer rc.Close()
		br := bufio.NewReader(rc)
		for {
			line, rerr := br.ReadBytes('\n')
			if len(line) > 0 {
				out := line
				var rec replica.Record
				if ct.corrupted.Load() == 0 && json.Unmarshal(line, &rec) == nil &&
					!rec.Reset && rec.Delta != nil && ct.corrupt(&rec) {
					if b, merr := json.Marshal(&rec); merr == nil {
						out = append(b, '\n')
						ct.corrupted.Store(rec.Version)
					}
				}
				if _, werr := pw.Write(out); werr != nil {
					return
				}
			}
			if rerr != nil {
				pw.CloseWithError(rerr)
				return
			}
		}
	}()
	return pr, nil
}

// ---------------------------------------------------------------------------
// Follower harness: start/stop incarnations the way crash-restart would.
// ---------------------------------------------------------------------------

type runningFollower struct {
	f      *replica.Follower
	cancel context.CancelFunc
	done   chan struct{}
}

func startFollower(f *replica.Follower) *runningFollower {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	return &runningFollower{f: f, cancel: cancel, done: done}
}

func (rf *runningFollower) stop() {
	rf.cancel()
	<-rf.done
}

// waitWithin blocks until the follower has verified a version at most
// lag behind head. The leader loop of the fault test paces itself with
// it, so every incarnation consumes records through the hostile
// transport however the scheduler interleaves leader and followers; the
// slack keeps a record the transport dropped or is holding at the tail
// of an idle stream from stalling the leader (the next version exposes
// the gap and the follower reconnects).
func waitWithin(t *testing.T, rf *runningFollower, head, lag uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := rf.f.Version()
		if v+lag >= head {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at v%d, leader at v%d; counters %v", v, head, rf.f.Status().Counters)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitConverged(t *testing.T, rf *runningFollower, wantVersion uint64, wantSHA string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := rf.f.Status()
		v := st.Version
		if v == wantVersion && st.FingerprintSHA == wantSHA {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at v%d (sha %.12s), want v%d (sha %.12s); counters %v",
				v, st.FingerprintSHA, wantVersion, wantSHA, st.Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// TestFollowerConvergesUnderFaults is the acceptance test of the
// replication protocol: a leader publishing a sliding window of
// versions (ingests and explicit evictions), two followers behind a
// transport that drops, duplicates, reorders, delays and truncates
// records, plus crash-restarts — one follower cold-restarting as fresh
// incarnations, the other warm-restarting from its last verified state
// the way -data-dir resume does. Every follower must converge to a
// fingerprint-identical KB, and the history checker must confirm each
// incarnation's observed versions form a prefix of the leader's chain.
// REPLICA_SOAK_VERSIONS scales it up for the CI soak.
func TestFollowerConvergesUnderFaults(t *testing.T) {
	versions := 30
	if v := os.Getenv("REPLICA_SOAK_VERSIONS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			versions = n
		}
	}
	// A small history keeps reconnecting followers falling behind the
	// horizon, so snapshot re-baselines are exercised too; the document
	// window makes every late version carry evictions.
	sess, ts := newLeader(t, qkbfly.SessionOptions{MaxDocuments: 8, HistoryLimit: 6})
	checker := replica.NewHistoryChecker()
	ft := &faultyTransport{
		base: httpDial(ts.Client()), seed: 42,
		pDrop: 0.08, pDup: 0.08, pReorder: 0.06, pDelay: 0.08, pTrunc: 0.05,
	}
	newF := func(name string) *replica.Follower {
		var f *replica.Follower
		observe := checker.Observer(name)
		f = replica.New(replica.Options{
			Leader:      ts.URL,
			Dial:        ft.dial,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			// The watchdog is what recovers a record dropped or held at the
			// tail of an idle stream, so it bounds each such stall.
			ReadTimeout: 250 * time.Millisecond,
			Logf:        discardLogf,
			// The follower verified this version by folding the identity
			// over its delta; re-derive it from the whole KB.
			OnVerified: func(v uint64, sha string) {
				if kb, kv := f.KB(); kv != v || replica.FingerprintSHA(kb) != sha {
					t.Errorf("%s: v%d verified as %.12s…, but its KB (v%d) hashes to %.12s…",
						name, v, sha, kv, replica.FingerprintSHA(kb))
				}
				observe(v, sha)
			},
		})
		return f
	}
	cold := startFollower(newF("cold-gen1"))
	warm := startFollower(newF("warm-gen1"))
	defer func() { cold.stop(); warm.stop() }()

	ctx := context.Background()
	coldGen, warmGen := 1, 1
	for i := 0; i < versions; i++ {
		snap, _, err := sess.Ingest(ctx, []*nlp.Document{doc(fmt.Sprintf("d%04d", i))})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		checker.RecordLeader(snap.Version(), snap.ContentID())
		if i%13 == 12 {
			// A removal-only version: delta subscribers must see it too.
			if snap, n := sess.Evict(fmt.Sprintf("d%04d", i)); n == 1 {
				checker.RecordLeader(snap.Version(), snap.ContentID())
			}
		}
		waitWithin(t, cold, sess.Version(), 2, 30*time.Second)
		waitWithin(t, warm, sess.Version(), 2, 30*time.Second)
		if i%10 == 9 {
			// Crash: the replacement starts cold (since 0) under a new
			// incarnation name — its fresh history must again be a prefix.
			cold.stop()
			coldGen++
			cold = startFollower(newF(fmt.Sprintf("cold-gen%d", coldGen)))
		}
		if i%7 == 6 {
			// Warm restart: carry the verified state across the crash, as a
			// blob-store bootstrap would, and resume from that version.
			warm.stop()
			kb, ver := warm.f.KB()
			warmGen++
			nf := newF(fmt.Sprintf("warm-gen%d", warmGen))
			if ver > 0 {
				nf.Seed(kb, ver, kb.Identity())
			}
			warm = startFollower(nf)
		}
	}

	head := sess.Snapshot()
	wantSHA := head.ContentID()
	waitConverged(t, cold, head.Version(), wantSHA, 30*time.Second)
	waitConverged(t, warm, head.Version(), wantSHA, 30*time.Second)
	cold.stop()
	warm.stop()

	if err := checker.Check(); err != nil {
		t.Fatalf("history checker: %v", err)
	}
	// The transport really was hostile. Counted at the injector, not at
	// one follower: each incarnation keeps its own counters, and the last
	// one may have seen a single clean reset record.
	if n := ft.injected.Load(); n < 2 {
		t.Errorf("transport injected %d faults over %d dials, want several", n, ft.dials.Load())
	}
	t.Logf("transport: %d faults injected over %d dials", ft.injected.Load(), ft.dials.Load())
	t.Logf("last cold incarnation counters: %v", cold.f.Status().Counters)
	t.Logf("last warm incarnation counters: %v", warm.f.Status().Counters)
}

// TestFollowerQuarantinesCorruptDelta injects a bit-flipped (but
// JSON-valid, correctly versioned) record — in an added fact, an
// upgraded confidence, a removed record, a changed entity record, or
// the stamp of a mid-chain version: identity verification must catch
// each and quarantine the version without ever serving it. Until the
// resync lands the follower serves the last verified version,
// fingerprint-identical to the leader's at that version; then it
// resyncs from a leader snapshot and converges. The history checker
// confirms the corrupt state never entered any served history.
func TestFollowerQuarantinesCorruptDelta(t *testing.T) {
	flip := func(s string) string { // one bit of the last byte
		b := []byte(s)
		b[len(b)-1] ^= 0x04
		return string(b)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(rec *replica.Record) bool
	}{
		{"added object", func(rec *replica.Record) bool {
			d := rec.Delta
			if len(d.Added) == 0 {
				return false
			}
			d.Added[0].Objects = []store.Value{{Literal: "silently corrupted in transit"}}
			return true
		}},
		{"upgraded confidence", func(rec *replica.Record) bool {
			d := rec.Delta
			if len(d.Upgraded) == 0 {
				return false
			}
			d.Upgraded[0].Confidence = math.Float64frombits(math.Float64bits(d.Upgraded[0].Confidence) ^ 1)
			return true
		}},
		{"removed record", func(rec *replica.Record) bool {
			d := rec.Delta
			if len(d.Removed) == 0 {
				return false
			}
			d.Removed[0].Relation = flip(d.Removed[0].Relation)
			return true
		}},
		{"changed entity", func(rec *replica.Record) bool {
			d := rec.Delta
			if len(d.ChangedEntities) == 0 {
				return false
			}
			d.ChangedEntities[0].Name = flip(d.ChangedEntities[0].Name)
			return true
		}},
		{"stamp mid-chain", func(rec *replica.Record) bool {
			if rec.Version < 3 {
				return false
			}
			rec.FingerprintSHA = flip(rec.FingerprintSHA)
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A two-document window: from v3 on every version evicts.
			sess, ts := newLeader(t, qkbfly.SessionOptions{HistoryLimit: 64, MaxDocuments: 2})
			ctx := context.Background()
			checker := replica.NewHistoryChecker()
			fingerprints := map[uint64]string{0: ""} // leader KB by version
			for i := 0; i < 4; i++ {
				snap, _, err := sess.Ingest(ctx, []*nlp.Document{doc(fmt.Sprintf("c%02d", i))})
				if err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				checker.RecordLeader(snap.Version(), snap.ContentID())
				fingerprints[snap.Version()] = snap.Fingerprint()
			}
			ct := &corruptingTransport{base: httpDial(ts.Client()), corrupt: tc.corrupt, resync: make(chan struct{})}
			f := replica.New(replica.Options{
				Leader:      ts.URL,
				Dial:        ct.dial,
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  20 * time.Millisecond,
				Logf:        discardLogf,
				OnVerified:  checker.Observer("f"),
			})
			rf := startFollower(f)
			defer rf.stop()

			// Quarantined, resync held back: the served state is the last
			// version verified before the corrupt one, unharmed.
			deadline := time.Now().Add(15 * time.Second)
			for f.Counters().Get(replica.CounterQuarantines) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no quarantine; counters %v", f.Counters().Snapshot())
				}
				time.Sleep(time.Millisecond)
			}
			bad := ct.corrupted.Load()
			if bad == 0 {
				t.Fatal("quarantined, but the transport never injected the corrupt record")
			}
			kb, kv := f.KB()
			if kv != bad-1 || f.Version() != kv {
				t.Fatalf("after quarantining v%d the follower serves v%d (Version %d), want v%d", bad, kv, f.Version(), bad-1)
			}
			if kb.Fingerprint() != fingerprints[kv] {
				t.Fatalf("served KB at v%d differs from the leader's v%d", kv, kv)
			}
			if st := f.Status(); st.Facts != kb.Len() || st.Entities != len(kb.Entities()) {
				t.Fatalf("status counts %d facts / %d entities, served KB %d / %d", st.Facts, st.Entities, kb.Len(), len(kb.Entities()))
			}
			close(ct.resync)

			head := sess.Snapshot()
			waitConverged(t, rf, head.Version(), head.ContentID(), 15*time.Second)
			rf.stop()

			c := f.Counters()
			if c.Get(replica.CounterQuarantines) < 1 {
				t.Errorf("corrupt delta was not quarantined (quarantines=0); counters %v", c.Snapshot())
			}
			if c.Get(replica.CounterResyncs) < 1 {
				t.Errorf("no snapshot resync after quarantine; counters %v", c.Snapshot())
			}
			st := f.Status()
			if len(st.Quarantined) == 0 {
				t.Error("Status.Quarantined is empty")
			} else {
				q := st.Quarantined[0]
				if q.LeaderSHA == q.LocalSHA {
					t.Errorf("quarantine recorded identical SHAs: %+v", q)
				}
			}
			if err := checker.Check(); err != nil {
				t.Fatalf("history checker: %v", err)
			}
		})
	}
}

// TestFollowerConcurrentReaders: readers calling KB, Version and Status
// while the follower applies a sliding chain always see a verified
// version whose KB hashes to the leader's stamp for it, never moving
// backwards; the counts Status keeps per version match the final KB.
// Run under -race it also checks that materializing for a reader and
// applying the next version never touch the same state unguarded.
func TestFollowerConcurrentReaders(t *testing.T) {
	sess, ts := newLeader(t, qkbfly.SessionOptions{MaxDocuments: 6, HistoryLimit: 64})
	f := replica.New(replica.Options{
		Leader:      ts.URL,
		Dial:        httpDial(ts.Client()),
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Logf:        discardLogf,
	})
	rf := startFollower(f)
	defer rf.stop()

	type read struct {
		version uint64
		sha     string
	}
	var stop atomic.Bool
	reads := make([][]read, 4)
	var wg sync.WaitGroup
	for r := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				kb, v := f.KB()
				reads[r] = append(reads[r], read{v, replica.FingerprintSHA(kb)})
				if f.Version() < v || f.Status().Version < v {
					t.Errorf("reader %d: Version or Status behind a KB already served at v%d", r, v)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	stamps := map[uint64]string{0: store.Identity{}.Hex()}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		snap, _, err := sess.Ingest(ctx, []*nlp.Document{doc(fmt.Sprintf("r%03d", i))})
		if err != nil {
			t.Fatal(err)
		}
		stamps[snap.Version()] = snap.ContentID()
		if i%7 == 6 {
			if snap, n := sess.Evict(fmt.Sprintf("r%03d", i-3)); n == 1 {
				stamps[snap.Version()] = snap.ContentID()
			}
		}
		if i%4 == 3 {
			waitWithin(t, rf, sess.Version(), 0, 15*time.Second)
		}
	}
	head := sess.Snapshot()
	waitConverged(t, rf, head.Version(), head.ContentID(), 15*time.Second)
	stop.Store(true)
	wg.Wait()

	for r, rs := range reads {
		for i, rd := range rs {
			if i > 0 && rd.version < rs[i-1].version {
				t.Fatalf("reader %d went backwards: v%d after v%d", r, rd.version, rs[i-1].version)
			}
			if rd.sha != stamps[rd.version] {
				t.Fatalf("reader %d: KB served at v%d hashes to %.12s, leader stamped %.12s", r, rd.version, rd.sha, stamps[rd.version])
			}
		}
	}
	kb, _ := f.KB()
	if st := f.Status(); st.Facts != kb.Len() || st.Entities != len(kb.Entities()) {
		t.Fatalf("status counts %d facts / %d entities, KB %d / %d", st.Facts, st.Entities, kb.Len(), len(kb.Entities()))
	}
}

// TestIdentityFollowerAcceptsAddedExistingKey: a delta whose Added fact
// names a key the follower's base already holds (Apply folds it in under
// the winner rule) verifies against the identity of the applied result,
// with no quarantine — the follower folds its identity by key, not by
// delta section.
func TestIdentityFollowerAcceptsAddedExistingKey(t *testing.T) {
	fact := func(conf float64, doc string) store.Fact {
		return store.Fact{Subject: store.Value{EntityID: "E"}, Relation: "be", Objects: []store.Value{{Literal: "thing"}},
			Confidence: conf, Source: store.Provenance{DocID: doc}}
	}
	v1 := store.New()
	v1.AddEntity(store.EntityRecord{ID: "E", Name: "E", Mentions: []string{"E"}})
	v1.AddFact(fact(0.4, "d1"))
	d1 := store.Diff(store.New(), v1)
	d2 := store.Delta{Added: []store.Fact{fact(0.8, "d2")}}
	v2 := d2.Apply(v1)
	var stream bytes.Buffer
	for _, rec := range []replica.Record{
		{Version: 1, FingerprintSHA: replica.FingerprintSHA(v1), Delta: &d1},
		{Version: 2, FingerprintSHA: replica.FingerprintSHA(v2), Delta: &d2},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(append(b, '\n'))
	}
	f := replica.New(replica.Options{
		Leader: "http://leader.invalid:0",
		Dial: func(context.Context, string) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(stream.Bytes())), nil
		},
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Logf:        discardLogf,
	})
	rf := startFollower(f)
	defer rf.stop()
	waitConverged(t, rf, 2, replica.FingerprintSHA(v2), 15*time.Second)
	rf.stop()
	if n := f.Counters().Get(replica.CounterQuarantines); n != 0 {
		t.Fatalf("%d quarantines; counters %v", n, f.Counters().Snapshot())
	}
	if kb, _ := f.KB(); kb.Fingerprint() != v2.Fingerprint() {
		t.Fatal("follower KB differs from the applied delta's result")
	}
}

// TestFollowerBootstrapFromBlobStore seeds a follower from a copy of
// the leader's persist directory (the PR 7 blob store + manifest),
// verifies the sealed fingerprint, and resumes the delta stream from
// the bootstrapped version — no snapshot re-baseline, only the
// post-bootstrap versions travel the wire.
func TestFollowerBootstrapFromBlobStore(t *testing.T) {
	leaderDir := t.TempDir()
	pstore, rec, err := persistOpen(leaderDir)
	if err != nil {
		t.Fatalf("open leader store: %v", err)
	}
	if rec.Version != 0 {
		t.Fatalf("fresh store recovered v%d", rec.Version)
	}
	sess := qkbfly.Open(stubBuilder{}, qkbfly.SessionOptions{Persist: pstore, HistoryLimit: 64})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := sess.Ingest(ctx, []*nlp.Document{doc(fmt.Sprintf("b%02d", i))}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	leaderFP := sess.Snapshot().Fingerprint()
	leaderVer := sess.Snapshot().Version()
	sess.Close()
	pstore.Flush()
	pstore.Seal(sess.Snapshot().Identity())
	if err := pstore.Close(); err != nil {
		t.Fatalf("close leader store: %v", err)
	}

	// The follower bootstraps from its own copy (a Store owns its dir).
	followerDir := t.TempDir()
	if err := os.CopyFS(followerDir, os.DirFS(leaderDir)); err != nil {
		t.Fatalf("copy blob store: %v", err)
	}
	kb, ver, id, err := replica.Bootstrap(followerDir, discardLogf)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if ver != leaderVer {
		t.Fatalf("bootstrapped v%d, want v%d", ver, leaderVer)
	}
	if want := qkbfly.FingerprintSHAHex(leaderFP); id.Hex() != want {
		t.Fatalf("bootstrap identity %s, want %s", id.Hex(), want)
	}

	// Warm-boot the leader from its own store and publish more versions.
	pstore2, rec2, err := persistOpen(leaderDir)
	if err != nil {
		t.Fatalf("reopen leader store: %v", err)
	}
	state := qkbfly.SessionState{Version: rec2.Version, NextSeq: rec2.NextSeq}
	for _, d := range rec2.Docs {
		state.Docs = append(state.Docs, qkbfly.DocState{Key: d.Key, Seq: d.Seq, Seg: d.Seg})
	}
	sess2, err := qkbfly.Restore(stubBuilder{}, qkbfly.SessionOptions{Persist: pstore2, HistoryLimit: 64}, state)
	if err != nil {
		t.Fatalf("restore leader: %v", err)
	}
	t.Cleanup(func() { sess2.Close(); pstore2.Close() })
	ts := httptest.NewServer(serve.NewHandler(serve.New(nil, serve.Options{}),
		serve.HandlerOptions{Session: sess2}))
	t.Cleanup(ts.Close)

	checker := replica.NewHistoryChecker()
	f := replica.New(replica.Options{
		Leader:      ts.URL,
		Dial:        httpDial(ts.Client()),
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Logf:        discardLogf,
		OnVerified:  checker.Observer("f"),
	})
	f.Seed(kb, ver, id)
	rf := startFollower(f)
	defer rf.stop()

	for i := 5; i < 8; i++ {
		snap, _, err := sess2.Ingest(ctx, []*nlp.Document{doc(fmt.Sprintf("b%02d", i))})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		checker.RecordLeader(snap.Version(), snap.ContentID())
	}
	head := sess2.Snapshot()
	waitConverged(t, rf, head.Version(), head.ContentID(), 15*time.Second)
	rf.stop()

	c := f.Counters()
	if c.Get(replica.CounterResets) != 0 {
		t.Errorf("bootstrapped follower needed %d snapshot resets; should have resumed by delta alone",
			c.Get(replica.CounterResets))
	}
	if err := checker.Check(); err != nil {
		t.Fatalf("history checker: %v", err)
	}
}

// TestHistoryCheckerDetectsDivergence covers the oracle itself: a
// consistent prefix passes; diverging fingerprints, rewinds, and
// never-published versions fail.
func TestHistoryCheckerDetectsDivergence(t *testing.T) {
	mk := func() *replica.HistoryChecker {
		h := replica.NewHistoryChecker()
		h.RecordLeader(1, "aaa")
		h.RecordLeader(2, "bbb")
		h.RecordLeader(3, "ccc")
		return h
	}

	h := mk()
	h.RecordReplica("r", 1, "aaa")
	h.RecordReplica("r", 3, "ccc") // skipping v2 (snapshot re-baseline) is fine
	if err := h.Check(); err != nil {
		t.Errorf("consistent prefix rejected: %v", err)
	}

	h = mk()
	h.RecordReplica("r", 2, "XXX")
	if err := h.Check(); err == nil {
		t.Error("diverged fingerprint not detected")
	}

	h = mk()
	h.RecordReplica("r", 2, "bbb")
	h.RecordReplica("r", 1, "aaa")
	if err := h.Check(); err == nil {
		t.Error("version rewind not detected")
	}

	h = mk()
	h.RecordReplica("r", 4, "ddd")
	if err := h.Check(); err == nil {
		t.Error("observation beyond leader head not detected")
	}

	h = mk()
	h.RecordLeader(2, "MUTATED")
	if err := h.Check(); err == nil {
		t.Error("leader chain conflict not detected")
	}
}
