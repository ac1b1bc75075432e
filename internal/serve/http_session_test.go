package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/serve"
)

// newSessionTestServer wires a handler whose live session runs over the
// fake backend (deterministic one-fact shards per document).
func newSessionTestServer(t *testing.T) (*httptest.Server, *qkbfly.Session) {
	t.Helper()
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	t.Cleanup(func() { sess.Close() })
	h := serve.NewHandler(srv, serve.HandlerOptions{Session: sess})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, sess
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

// TestServeHTTPIngestAndFacts drives the incremental daemon surface end
// to end: ingest two documents, replay them over /facts?since=, ingest a
// duplicate (no-op), evict, and verify versions and NDJSON framing.
func TestServeHTTPIngestAndFacts(t *testing.T) {
	ts, sess := newSessionTestServer(t)

	// Ingest two documents.
	resp, body := postJSON(t, ts.URL+"/ingest",
		`{"docs":[{"id":"n1","title":"N1","text":"one"},{"id":"n2","title":"N2","text":"two"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: %d %s", resp.StatusCode, body)
	}
	var ing struct {
		Version  uint64 `json:"version"`
		Ingested int    `json:"ingested"`
		Skipped  int    `json:"skipped"`
		Docs     int    `json:"docs"`
		Facts    int    `json:"facts"`
	}
	decodeJSON(t, strings.NewReader(body), &ing)
	if ing.Version != 1 || ing.Ingested != 2 || ing.Skipped != 0 || ing.Docs != 2 || ing.Facts != 2 {
		t.Fatalf("/ingest response: %+v", ing)
	}

	// Duplicate ingest is a version-preserving no-op.
	_, body = postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"n1","text":"one"}]}`)
	decodeJSON(t, strings.NewReader(body), &ing)
	if ing.Version != 1 || ing.Ingested != 0 || ing.Skipped != 1 {
		t.Fatalf("duplicate /ingest response: %+v", ing)
	}

	// Validation.
	if resp, _ := postJSON(t, ts.URL+"/ingest", `{"docs":[{"title":"no id or text"}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/ingest without id/text: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/ingest", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/ingest with no docs: %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/ingest"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: %v %d, want 405", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// /session reflects the live window.
	resp, err := http.Get(ts.URL + "/session")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/session: %v %d", err, resp.StatusCode)
	}
	var sessInfo struct {
		Version  uint64   `json:"version"`
		Docs     []string `json:"docs"`
		Facts    int      `json:"facts"`
		Entities int      `json:"entities"`
	}
	decodeJSON(t, resp.Body, &sessInfo)
	resp.Body.Close()
	if sessInfo.Version != 1 || len(sessInfo.Docs) != 2 || sessInfo.Facts != 2 ||
		sessInfo.Entities != len(sess.Snapshot().KB().Entities()) {
		t.Fatalf("/session: %+v", sessInfo)
	}

	// Replay everything since version 0 as NDJSON.
	resp, err = http.Get(ts.URL + "/facts?since=0")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("/facts content type %q", got)
	}
	if got := resp.Header.Get("X-QKBfly-Version"); got != "1" {
		t.Errorf("/facts version header %q, want 1", got)
	}
	lines := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if len(lines) != 2 {
		t.Fatalf("/facts?since=0 returned %d lines: %v", len(lines), lines)
	}
	for _, l := range lines {
		if l["version"].(float64) != 1 {
			t.Errorf("fact line version %v, want 1", l["version"])
		}
		if !strings.HasPrefix(l["subject"].(string), "E_n") {
			t.Errorf("unexpected subject %v", l["subject"])
		}
	}

	// Nothing since the current version.
	resp, err = http.Get(ts.URL + "/facts?since=1")
	if err != nil {
		t.Fatal(err)
	}
	if lines := readNDJSON(t, resp.Body); len(lines) != 0 {
		t.Errorf("/facts?since=1 returned %d lines, want 0", len(lines))
	}
	resp.Body.Close()

	// Eviction bumps the version without emitting facts.
	resp, body = postJSON(t, ts.URL+"/evict", `{"doc_ids":["n1"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/evict: %d %s", resp.StatusCode, body)
	}
	var ev struct {
		Version uint64 `json:"version"`
		Removed int    `json:"removed"`
		Docs    int    `json:"docs"`
		Facts   int    `json:"facts"`
	}
	decodeJSON(t, strings.NewReader(body), &ev)
	if ev.Version != 2 || ev.Removed != 1 || ev.Docs != 1 || ev.Facts != 1 {
		t.Fatalf("/evict response: %+v", ev)
	}
	resp, err = http.Get(ts.URL + "/facts?since=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-QKBfly-Version"); got != "2" {
		t.Errorf("post-evict version header %q, want 2", got)
	}
	if lines := readNDJSON(t, resp.Body); len(lines) != 0 {
		t.Errorf("eviction emitted %d fact lines", len(lines))
	}
	resp.Body.Close()
}

// TestIdentityIngestRejectsControlCharacterIDs: a document ID lands
// unquoted in fingerprint lines (src=<id>:<sentence>), so /ingest
// refuses one holding a newline or any other control character with 400
// and publishes nothing; other unicode is fine.
func TestIdentityIngestRejectsControlCharacterIDs(t *testing.T) {
	ts, sess := newSessionTestServer(t)
	for _, id := range []string{"line\nbreak", "tab\there", "nul\u0000", "bell\u0007", "del\u007f", "c1\u0085"} {
		body, err := json.Marshal(map[string]any{"docs": []map[string]string{{"id": id, "text": "x"}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp, msg := postJSON(t, ts.URL+"/ingest", string(body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/ingest id %q: %d %s, want 400", id, resp.StatusCode, msg)
		}
	}
	if v := sess.Version(); v != 0 {
		t.Fatalf("rejected ingests published version %d", v)
	}
	if resp, msg := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"ünïcode id ✓","text":"x"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest with a printable unicode id: %d %s", resp.StatusCode, msg)
	}
	snap := sess.Snapshot()
	if qkbfly.FingerprintSHAHex(snap.Fingerprint()) != sess.FingerprintSHA(snap) {
		t.Fatal("text and folded identities disagree for an accepted id")
	}
}

// TestServeHTTPEvictInvalidatesShards: re-ingesting a document ID with
// different content after /evict must rebuild the shard, not fold the
// stale cached one — /evict drops the shard-cache entries for the IDs.
func TestServeHTTPEvictInvalidatesShards(t *testing.T) {
	w, sys := realSystem(t)
	srv := serve.New(sys, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{Session: sess}))
	defer ts.Close()

	// Two different real documents; the second will be re-ingested under
	// the first one's ID.
	docs := corpus.Docs(w.WikiDataset(2))
	ingest := func(id, text string) map[string]any {
		t.Helper()
		blob, _ := json.Marshal(map[string]any{"docs": []map[string]string{{"id": id, "title": id, "text": text}}})
		resp, body := postJSON(t, ts.URL+"/ingest", string(blob))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/ingest: %d %s", resp.StatusCode, body)
		}
		var m map[string]any
		decodeJSON(t, strings.NewReader(body), &m)
		return m
	}

	ingest("x", docs[0].Text)
	if resp, body := postJSON(t, ts.URL+"/evict", `{"doc_ids":["x"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/evict: %d %s", resp.StatusCode, body)
	}
	ingest("x", docs[1].Text) // same ID, different content

	// The live KB must reflect the NEW content: identical to a batch
	// build of just the second text.
	fresh := corpus.Docs(w.WikiDataset(2))
	fresh[1].ID = "x"
	wantKB, _, err := sys.BuildKBContext(context.Background(), fresh[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Snapshot().Fingerprint(), wantKB.Fingerprint(); got != want {
		t.Error("re-ingest under a reused ID folded the stale cached shard")
	}
}

// TestServeHTTPFactsFollow: with ?follow=1 the response replays history,
// then stays open and streams facts as later ingests land.
func TestServeHTTPFactsFollow(t *testing.T) {
	ts, _ := newSessionTestServer(t)

	if resp, body := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"a","text":"x"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/facts?since=0&follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// Replayed line for doc "a".
	if !sc.Scan() {
		t.Fatalf("no replay line: %v", sc.Err())
	}
	var line map[string]any
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatalf("replay line %q: %v", sc.Text(), err)
	}
	if line["doc_id"] != "a" {
		t.Fatalf("replay line %v", line)
	}

	// A follow-up ingest must stream through the open response.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"b","text":"y"}]}`)
	}()
	if !sc.Scan() {
		t.Fatalf("no live line: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatalf("live line %q: %v", sc.Text(), err)
	}
	if line["doc_id"] != "b" || line["version"].(float64) != 2 {
		t.Fatalf("live line %v", line)
	}
	<-done
	cancel() // disconnect; the handler unwinds via the request context
}

// TestServeHTTPFactsReset: when ?since= predates the retained history the
// stream re-bases: a reset marker, then the full current snapshot.
func TestServeHTTPFactsReset(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{HistoryLimit: 1})
	defer sess.Close()
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{Session: sess}))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"docs":[{"id":"doc%d","text":"t"}]}`, i)
		if resp, b := postJSON(t, ts.URL+"/ingest", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("/ingest %d: %d %s", i, resp.StatusCode, b)
		}
	}
	resp, err := http.Get(ts.URL + "/facts?since=0")
	if err != nil {
		t.Fatal(err)
	}
	lines := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if len(lines) != 4 { // reset marker + 3 snapshot facts
		t.Fatalf("reset dump returned %d lines: %v", len(lines), lines)
	}
	if lines[0]["reset"] != true {
		t.Fatalf("first line is not a reset marker: %v", lines[0])
	}
	for _, l := range lines[1:] {
		if l["version"].(float64) != 3 {
			t.Errorf("snapshot line stamped %v, want current version 3", l["version"])
		}
	}
}

// TestServeHTTPSessionEndpointsWithoutSession: the session endpoints
// return 503 when no live session is configured.
func TestServeHTTPSessionEndpointsWithoutSession(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{}))
	defer ts.Close()

	if resp, _ := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"a","text":"x"}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/ingest without session: %d, want 503", resp.StatusCode)
	}
	for _, path := range []string{"/facts", "/session"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s without session: %d, want 503", path, resp.StatusCode)
		}
	}
}

// readNDJSON decodes every non-empty line of an NDJSON body.
func readNDJSON(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}
