package serve_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/analytics"
	"qkbfly/internal/serve"
)

// analyticsBody mirrors the /analytics JSON shape for decoding.
type analyticsBody struct {
	analytics.Summary
	ContentID       string                   `json:"content_id"`
	ServedFromCache bool                     `json:"served_from_cache"`
	Growth          []analytics.VersionDelta `json:"growth"`
}

func newAnalyticsTestServer(t *testing.T) (*httptest.Server, *qkbfly.Session) {
	t.Helper()
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{Counters: srv.Counters()})
	t.Cleanup(func() { sess.Close() })
	tracker := qkbfly.NewAnalyticsTracker(sess, qkbfly.AnalyticsOptions{Counters: srv.Counters()})
	t.Cleanup(tracker.Close)
	h := serve.NewHandler(srv, serve.HandlerOptions{Session: sess, Analytics: tracker})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, sess
}

func getAnalytics(t *testing.T, url string) (int, analyticsBody, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body analyticsBody
	var raw strings.Builder
	dec := json.NewDecoder(strings.NewReader(readAll(t, resp, &raw)))
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&body); err != nil {
			t.Fatalf("decode /analytics: %v\n%s", err, raw.String())
		}
	}
	return resp.StatusCode, body, resp.Header.Get("X-QKBfly-Version")
}

func readAll(t *testing.T, resp *http.Response, sb *strings.Builder) string {
	t.Helper()
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestServeHTTPAnalytics: /analytics reflects ingested content, caches
// its marshaled body per version, and moves with new versions.
func TestServeHTTPAnalytics(t *testing.T) {
	ts, _ := newAnalyticsTestServer(t)

	// Empty session: a valid zero summary.
	code, body, ver := getAnalytics(t, ts.URL+"/analytics")
	if code != http.StatusOK || body.Version != 0 || body.Facts != 0 || ver != "0" {
		t.Fatalf("empty /analytics: code=%d body=%+v ver=%s", code, body, ver)
	}

	// Ingest two documents (fake backend: one fact per doc).
	if resp, b := postJSON(t, ts.URL+"/ingest",
		`{"docs":[{"id":"a1","text":"one"},{"id":"a2","text":"two"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: %d %s", resp.StatusCode, b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, _ = getAnalytics(t, ts.URL+"/analytics")
		if code == http.StatusOK && body.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("analytics never reached version 1: %+v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body.Facts != 2 || len(body.Predicates) == 0 || len(body.Documents) != 2 {
		t.Fatalf("analytics after ingest: %+v", body)
	}
	if len(body.Growth) != 1 || body.Growth[0].Added != 2 {
		t.Fatalf("growth after ingest: %+v", body.Growth)
	}
	// content_id is the version's identity: the /deltas stamp of v1.
	resp, err := http.Get(ts.URL + "/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	if recs := readRecords(t, resp); len(recs) != 1 || recs[0].FingerprintSHA != body.ContentID {
		t.Fatalf("content_id %q, /deltas records %+v", body.ContentID, recs)
	}
	firstID := body.ContentID

	// Second poll of the same version: cached bytes, same content_id.
	_, again, _ := getAnalytics(t, ts.URL+"/analytics")
	if !again.ServedFromCache {
		t.Fatal("second poll not served from cache")
	}
	if again.ContentID != firstID {
		t.Fatalf("content_id changed between polls of one version: %s vs %s", firstID, again.ContentID)
	}

	// A new version invalidates the cache and moves the identity.
	if resp, b := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"a3","text":"three"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest a3: %d %s", resp.StatusCode, b)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, body, _ = getAnalytics(t, ts.URL+"/analytics")
		if body.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("analytics never reached version 2: %+v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body.ServedFromCache || body.ContentID == firstID || body.Facts != 3 {
		t.Fatalf("analytics after second ingest: %+v", body)
	}
}

// TestServeHTTPAnalyticsFollow: ?follow=1 streams a summary record then
// one analytic delta per published version.
func TestServeHTTPAnalyticsFollow(t *testing.T) {
	ts, _ := newAnalyticsTestServer(t)

	if resp, b := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"f1","text":"one"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: %d %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/analytics?follow=1")
	if err != nil {
		t.Fatalf("GET follow: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("follow content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no summary record: %v", sc.Err())
	}
	var first analyticsBody
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("summary record: %v\n%s", err, sc.Text())
	}
	summaryV := first.Version

	// Trigger one more version; the stream must deliver its delta.
	if resp, b := postJSON(t, ts.URL+"/ingest", `{"docs":[{"id":"f2","text":"two"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest f2: %d %s", resp.StatusCode, b)
	}
	type scanResult struct {
		line []byte
		ok   bool
	}
	lines := make(chan scanResult, 4)
	go func() {
		for sc.Scan() {
			lines <- scanResult{append([]byte(nil), sc.Bytes()...), true}
		}
		lines <- scanResult{nil, false}
	}()
	select {
	case res := <-lines:
		if !res.ok {
			t.Fatalf("stream closed early: %v", sc.Err())
		}
		var vd analytics.VersionDelta
		if err := json.Unmarshal(res.line, &vd); err != nil {
			t.Fatalf("delta record: %v\n%s", err, res.line)
		}
		if vd.Version != summaryV+1 || vd.Added != 1 {
			t.Fatalf("delta record: %+v, want version %d with one addition", vd, summaryV+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow stream delivered no delta")
	}
}

// TestServeHTTPAnalyticsUnconfigured: without a tracker the endpoint
// answers 503, and /stats still carries uptime and build identity.
func TestServeHTTPAnalyticsUnconfigured(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{Session: sess}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/analytics")
	if err != nil {
		t.Fatalf("GET /analytics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/analytics without tracker: %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var st struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Build         struct {
			GoVersion string `json:"go_version"`
			OS        string `json:"os"`
			Arch      string `json:"arch"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	resp.Body.Close()
	if st.UptimeSeconds < 0 || st.Build.GoVersion == "" || st.Build.OS == "" || st.Build.Arch == "" {
		t.Fatalf("/stats uptime/build: %+v", st)
	}
}
