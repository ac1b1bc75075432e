package serve_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/replica"
	"qkbfly/internal/serve"
)

// newDeltaTestServer is newSessionTestServer with session options — the
// /deltas tests need control over the history horizon.
func newDeltaTestServer(t *testing.T, opts qkbfly.SessionOptions) (*httptest.Server, *qkbfly.Session) {
	t.Helper()
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(opts)
	t.Cleanup(func() { sess.Close() })
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{Session: sess}))
	t.Cleanup(ts.Close)
	return ts, sess
}

// readRecords decodes every NDJSON replication record from a /deltas
// response body (non-follow form; the body terminates).
func readRecords(t *testing.T, resp *http.Response) []replica.Record {
	t.Helper()
	defer resp.Body.Close()
	var recs []replica.Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec replica.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs
}

// TestServeDeltasReplayVerifies: the full wire contract of GET /deltas —
// replay from zero is a contiguous, fingerprint-stamped delta chain that
// a from-empty apply verifies version by version.
func TestServeDeltasReplayVerifies(t *testing.T) {
	ts, sess := newDeltaTestServer(t, qkbfly.SessionOptions{})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/ingest", fmt.Sprintf(`{"docs":[{"id":"d%d","text":"t%d"}]}`, i, i))
	}
	resp, err := http.Get(ts.URL + "/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/deltas: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if v := resp.Header.Get("X-QKBfly-Version"); v != "3" {
		t.Errorf("X-QKBfly-Version %q, want 3", v)
	}
	recs := readRecords(t, resp)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	kb := store.New()
	for i, rec := range recs {
		if rec.Reset || rec.Version != uint64(i+1) || rec.Delta == nil {
			t.Fatalf("record %d: %+v", i, rec)
		}
		kb = rec.Delta.Apply(kb)
		if got := replica.FingerprintSHA(kb); got != rec.FingerprintSHA {
			t.Fatalf("chain diverged at v%d", rec.Version)
		}
	}
	if got, want := replica.FingerprintSHA(kb), sess.FingerprintSHA(sess.Snapshot()); got != want {
		t.Errorf("replayed head sha %.12s, want %.12s", got, want)
	}
}

// TestServeDeltasSnapshotAndHorizon: snapshot=1 forces a single reset
// record; a since= behind the retained horizon re-baselines the same way.
func TestServeDeltasSnapshotAndHorizon(t *testing.T) {
	ts, sess := newDeltaTestServer(t, qkbfly.SessionOptions{HistoryLimit: 1})
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/ingest", fmt.Sprintf(`{"docs":[{"id":"s%d","text":"t%d"}]}`, i, i))
	}
	wantSHA := sess.FingerprintSHA(sess.Snapshot())

	check := func(url string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		recs := readRecords(t, resp)
		if len(recs) != 1 || !recs[0].Reset || recs[0].Version != 4 {
			t.Fatalf("%s: %+v", url, recs)
		}
		if got := replica.FingerprintSHA(recs[0].Delta.Apply(store.New())); got != wantSHA {
			t.Errorf("%s: reset applies to sha %.12s, want %.12s", url, got, wantSHA)
		}
	}
	check(ts.URL + "/deltas?snapshot=1")
	check(ts.URL + "/deltas?since=1") // behind the horizon with HistoryLimit=1
}

// TestServeDeltasFollow: follow=1 keeps the stream open and ships each
// newly published version (including eviction-only ones) as it lands.
func TestServeDeltasFollow(t *testing.T) {
	ts, sess := newDeltaTestServer(t, qkbfly.SessionOptions{})
	postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"f1","text":"one"}]}`)

	resp, err := http.Get(ts.URL + "/deltas?since=0&follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan replica.Record, 16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var rec replica.Record
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				lines <- rec
			}
		}
	}()
	next := func(what string) replica.Record {
		t.Helper()
		select {
		case rec, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed waiting for %s", what)
			}
			return rec
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	if rec := next("replayed v1"); rec.Version != 1 {
		t.Fatalf("replay record: %+v", rec)
	}
	postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"f2","text":"two"}]}`)
	if rec := next("live v2"); rec.Version != 2 || rec.Delta == nil {
		t.Fatalf("live record: %+v", rec)
	}
	postJSON(t, ts.URL+"/evict", `{"doc_ids":["f1"]}`)
	rec := next("eviction v3")
	if rec.Version != 3 || rec.Delta == nil || len(rec.Delta.Removed) == 0 {
		t.Fatalf("eviction record: %+v", rec)
	}
	if got, want := rec.FingerprintSHA, sess.FingerprintSHA(sess.Snapshot()); got != want {
		t.Errorf("eviction stamp %.12s, want %.12s", got, want)
	}
}

// TestServeRoleReporting: /healthz and /stats classify the process as
// standalone until a replication stream has been served, then leader.
func TestServeRoleReporting(t *testing.T) {
	ts, _ := newDeltaTestServer(t, qkbfly.SessionOptions{})
	var h struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp.Body, &h)
	resp.Body.Close()
	if h.Role != "standalone" || h.Status != "ok" {
		t.Fatalf("before /deltas: %+v", h)
	}

	if resp, err := http.Get(ts.URL + "/deltas?snapshot=1"); err == nil {
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Role     string           `json:"role"`
		Counters map[string]int64 `json:"counters"`
	}
	decodeJSON(t, resp.Body, &st)
	resp.Body.Close()
	if st.Role != "leader" {
		t.Errorf("after /deltas: role %q, want leader", st.Role)
	}
	if st.Counters["delta_streams"] < 1 {
		t.Errorf("delta_streams counter not accounted: %v", st.Counters)
	}
}

// TestServeMinVersionPin: ?min_version= behind the serving version is a
// 412 carrying the actual version; satisfied pins pass through.
func TestServeMinVersionPin(t *testing.T) {
	ts, _ := newDeltaTestServer(t, qkbfly.SessionOptions{})
	postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"m1","text":"one"}]}`)

	for _, url := range []string{
		ts.URL + "/facts?min_version=99",
		ts.URL + "/query?pattern=%3Fd+mentions+%3Fc&min_version=99",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Errorf("%s: %d, want 412", url, resp.StatusCode)
		}
		if v := resp.Header.Get("X-QKBfly-Version"); v != "1" {
			t.Errorf("%s: X-QKBfly-Version %q, want 1", url, v)
		}
	}
	for _, url := range []string{
		ts.URL + "/facts?min_version=1",
		ts.URL + "/query?pattern=%3Fd+mentions+%3Fc&min_version=1",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d, want 200", url, resp.StatusCode)
		}
	}
}

// newFollowerTestServer serves a handler backed by a seeded (not
// running) Follower — the read path is exercised without a leader.
func newFollowerTestServer(t *testing.T, version uint64, docIDs ...string) (*httptest.Server, *replica.Follower) {
	t.Helper()
	kb := store.New()
	for _, id := range docIDs {
		d := store.Diff(store.New(), shardFor(id))
		kb = d.Apply(kb)
	}
	f := replica.New(replica.Options{Leader: "http://leader.invalid:0"})
	f.Seed(kb, version, kb.Identity())
	h := serve.NewHandler(serve.New(nil, serve.Options{}), serve.HandlerOptions{Replica: f})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, f
}

// TestServeFollowerReadPath: a follower serves /facts, /query, /session
// and /healthz from its verified KB, rejects writes, and does not
// re-export /deltas or /kb.
func TestServeFollowerReadPath(t *testing.T) {
	ts, f := newFollowerTestServer(t, 7, "n1", "n2")

	// /facts: reset line then the full dump at the served version.
	resp, err := http.Get(ts.URL + "/facts")
	if err != nil {
		t.Fatal(err)
	}
	if v := resp.Header.Get("X-QKBfly-Version"); v != "7" {
		t.Errorf("/facts X-QKBfly-Version %q, want 7", v)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	resp.Body.Close()
	if len(lines) != 3 || !strings.Contains(lines[0], `"reset":true`) {
		t.Fatalf("/facts lines: %v", lines)
	}

	// /query evaluates over the verified KB.
	resp, err = http.Get(ts.URL + "/query?pattern=%3Fd+mentions+%3Fc")
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Version uint64 `json:"version"`
		Count   int    `json:"count"`
	}
	decodeJSON(t, resp.Body, &qr)
	resp.Body.Close()
	if qr.Version != 7 || qr.Count != 2 {
		t.Errorf("/query: %+v, want v7 count 2", qr)
	}

	// Standing queries belong on the leader.
	if resp, err := http.Get(ts.URL + "/query?pattern=%3Fd+mentions+%3Fc&since=0"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/query?since on follower: %d, want 400", resp.StatusCode)
		}
	}

	// min_version pinning against the follower's served version.
	if resp, err := http.Get(ts.URL + "/facts?min_version=8"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Errorf("/facts?min_version=8: %d, want 412", resp.StatusCode)
		}
	}

	// /healthz and /session report the follower role.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Role    string `json:"role"`
		Version uint64 `json:"version"`
	}
	decodeJSON(t, resp.Body, &h)
	resp.Body.Close()
	if h.Role != "follower" || h.Version != 7 {
		t.Errorf("/healthz: %+v", h)
	}
	resp, err = http.Get(ts.URL + "/session")
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		Role     string `json:"role"`
		Version  uint64 `json:"version"`
		Facts    int    `json:"facts"`
		Entities int    `json:"entities"`
	}
	decodeJSON(t, resp.Body, &sess)
	resp.Body.Close()
	if kb, _ := f.KB(); sess.Role != "follower" || sess.Version != 7 || sess.Facts != kb.Len() || sess.Entities != len(kb.Entities()) {
		t.Errorf("/session: %+v, want v7 with %d facts and %d entities", sess, kb.Len(), len(kb.Entities()))
	}

	// A caller already at the served version gets the header and no lines.
	resp, err = http.Get(ts.URL + "/facts?since=7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := resp.Header.Get("X-QKBfly-Version"); v != "7" || strings.TrimSpace(string(body)) != "" {
		t.Errorf("/facts?since=7: version %q, body %q", v, body)
	}

	// Writes are refused; the stream and builder endpoints are absent.
	if resp, _ := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"x","text":"x"}]}`); resp.StatusCode != http.StatusForbidden {
		t.Errorf("/ingest on follower: %d, want 403", resp.StatusCode)
	}
	for url, want := range map[string]int{
		ts.URL + "/deltas": http.StatusServiceUnavailable,
		ts.URL + "/kb?q=x": http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s on follower: %d, want %d", url, resp.StatusCode, want)
		}
	}
}
