package serve_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/serve"
)

// TestServeHTTPShutdownFlushesDurableState replays the daemon's SIGTERM
// sequence against a durable session: close the session, drain the HTTP
// server, then flush pending writeback and seal the manifest. A reopen
// of the data directory must recover a sealed store whose restored
// session reproduces the pre-shutdown version and fingerprint exactly.
func TestServeHTTPShutdownFlushesDurableState(t *testing.T) {
	dir := t.TempDir()
	p, rec, err := persist.Open(dir, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 0 {
		t.Fatalf("fresh dir recovered version %d", rec.Version)
	}
	srv := serve.New(&fakeBackend{}, serve.Options{})
	srv.SetPersistStats(p.Counters)
	sess := srv.OpenSession(qkbfly.SessionOptions{Persist: p})
	h := serve.NewHandler(srv, serve.HandlerOptions{Session: sess})
	httpSrv := &http.Server{Handler: h}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)

	// Publish a few versions through the public surface.
	base := "http://" + ln.Addr().String()
	for i, body := range []string{
		`{"docs":[{"id":"n1","text":"one"},{"id":"n2","text":"two"}]}`,
		`{"docs":[{"id":"n3","text":"three"}]}`,
	} {
		if resp, b := postJSON(t, base+"/ingest", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, resp.StatusCode, b)
		}
	}
	if _, err := http.Get(base + "/stats"); err != nil {
		t.Fatalf("/stats with persist counters: %v", err)
	}

	want := sess.Snapshot().Fingerprint()
	wantVersion := sess.Snapshot().Version()
	wantDocs := fmt.Sprint(sess.Docs())

	// The daemon's shutdown order: session first (ends follower streams),
	// HTTP drain, then flush + seal + close the durable store.
	sess.Close()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	p.Flush()
	p.Seal(sess.Snapshot().Identity())
	if err := p.Close(); err != nil {
		t.Fatalf("close persist: %v", err)
	}

	// Reopen: the seal must be visible and the restored session identical.
	p2, rec2, err := persist.Open(dir, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if !rec2.Sealed {
		t.Fatal("shutdown did not seal the manifest")
	}
	if rec2.Version != wantVersion {
		t.Fatalf("recovered version %d, want %d", rec2.Version, wantVersion)
	}
	if rec2.Identity != store.TextIdentity(want) {
		t.Fatal("sealed identity does not match the pre-shutdown KB")
	}
	st := qkbfly.SessionState{Version: rec2.Version, NextSeq: rec2.NextSeq}
	for _, d := range rec2.Docs {
		st.Docs = append(st.Docs, qkbfly.DocState{Key: d.Key, Seq: d.Seq, Seg: d.Seg})
	}
	sess2, err := qkbfly.Restore(srv, qkbfly.SessionOptions{Persist: p2}, st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer sess2.Close()
	if got := fmt.Sprint(sess2.Docs()); got != wantDocs {
		t.Fatalf("restored docs %s, want %s", got, wantDocs)
	}
	if got := sess2.Snapshot().Fingerprint(); got != want {
		t.Fatal("restored fingerprint differs from pre-shutdown session")
	}
}
