package serve_test

import (
	"context"
	"testing"

	"qkbfly"
	"qkbfly/internal/nlp"
	"qkbfly/internal/serve"
)

// docsByID builds named fake documents.
func docsByID(ids ...string) []*nlp.Document {
	out := make([]*nlp.Document, len(ids))
	for i, id := range ids {
		out[i] = &nlp.Document{ID: id, Title: id}
	}
	return out
}

// TestRunCacheSharesPartialMerges: two KBForDocs calls over the same
// document set share every partial merge — the second call performs zero
// new merges — and a call over an overlapping set reuses the shared
// pairwise runs. Content stays identical to a cold fold.
func TestRunCacheSharesPartialMerges(t *testing.T) {
	f := &fakeBackend{}
	srv := serve.New(f, serve.Options{})
	ctx := context.Background()
	c := srv.Counters()

	kb1, _, err := srv.KBForDocs(ctx, docsByID("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise fold of 4 docs: (a+b), (c+d), (ab+cd) = 3 misses.
	if got := c.Get(serve.CounterRunMisses); got != 3 {
		t.Fatalf("run_misses after cold fold = %d, want 3", got)
	}
	if got := c.Get(serve.CounterRunHits); got != 0 {
		t.Fatalf("run_hits after cold fold = %d, want 0", got)
	}

	kb2, _, err := srv.KBForDocs(ctx, docsByID("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(serve.CounterRunMisses); got != 3 {
		t.Errorf("repeat fold missed the run cache (misses %d, want 3)", got)
	}
	if got := c.Get(serve.CounterRunHits); got != 3 {
		t.Errorf("repeat fold run_hits = %d, want 3 (every pair served from cache)", got)
	}
	if kb2.Fingerprint() != kb1.Fingerprint() {
		t.Error("run-cache-served fold differs from cold fold")
	}

	// Overlapping prefix: (a+b) is shared, (c+e) and the top are new.
	kb3, _, err := srv.KBForDocs(ctx, docsByID("a", "b", "c", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(serve.CounterRunHits); got != 4 {
		t.Errorf("overlapping fold run_hits = %d, want 4 ((a+b) reused)", got)
	}
	if got := c.Get(serve.CounterRunMisses); got != 5 {
		t.Errorf("overlapping fold run_misses = %d, want 5", got)
	}
	if kb3.Fingerprint() == kb1.Fingerprint() {
		t.Error("distinct document sets folded to the same KB")
	}
}

// TestRunCacheSharedWithSessions: the partial merges a server-backed
// session's merge tree performs land in (and are served from) the same
// run cache the query path uses.
func TestRunCacheSharedWithSessions(t *testing.T) {
	f := &fakeBackend{}
	srv := serve.New(f, serve.Options{})
	ctx := context.Background()
	c := srv.Counters()

	// The session pushes a,b,c,d one by one: its LSM tail compaction
	// merges (a+b), (c+d) and (ab+cd) — the same runs a pairwise query
	// fold needs.
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, _, err := sess.Ingest(ctx, docsByID(id)); err != nil {
			t.Fatal(err)
		}
	}
	misses := c.Get(serve.CounterRunMisses)
	if misses != 3 {
		t.Fatalf("session tree compaction run_misses = %d, want 3", misses)
	}

	kb, _, err := srv.KBForDocs(ctx, docsByID("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(serve.CounterRunMisses); got != misses {
		t.Errorf("query after session re-merged (misses %d -> %d); want full run reuse", misses, got)
	}
	if got := c.Get(serve.CounterRunHits); got != 3 {
		t.Errorf("query after session run_hits = %d, want 3 (all session runs reused)", got)
	}
	if kb.Fingerprint() != sess.Snapshot().Fingerprint() {
		t.Error("query fold differs from session version over the same docs")
	}
}

// TestInvalidateShardsKeepsRuns: invalidating a document drops its
// cached leaves and nothing else — the run cache is keyed by segments,
// so the runs over the old leaf are simply never found again.
func TestInvalidateShardsKeepsRuns(t *testing.T) {
	f := &fakeBackend{}
	srv := serve.New(f, serve.Options{})
	ctx := context.Background()

	if _, _, err := srv.KBForDocs(ctx, docsByID("a", "b")); err != nil {
		t.Fatal(err)
	}
	runs := srv.Stats().RunEntries
	if runs == 0 {
		t.Fatal("no runs cached by the fold")
	}
	if removed := srv.InvalidateShards("a"); removed != 1 {
		t.Fatalf("InvalidateShards removed %d, want 1", removed)
	}
	if got := srv.Stats().RunEntries; got != runs {
		t.Errorf("run cache holds %d entries after invalidation, want the %d it held", got, runs)
	}
}

// TestReplacedDocNeverFoldsStaleRun: a document replaced under its ID
// folds to its new content through every path — with its old leaf still
// cached when invalidated, or LRU-evicted before — while the runs over
// the documents it left alone keep hitting, and the run cache is never
// cleared.
func TestReplacedDocNeverFoldsStaleRun(t *testing.T) {
	for _, shardCap := range []int{0, 1} {
		f := &fakeBackend{byText: true}
		// ShardCapacity 1: caching each leaf evicts the one before, so
		// the runs over "x" outlive its leaf.
		srv := serve.New(f, serve.Options{ShardCapacity: shardCap})
		ctx := context.Background()
		c := srv.Counters()
		doc := func(id, text string) *nlp.Document { return &nlp.Document{ID: id, Title: id, Text: text} }
		fold := func(docs ...*nlp.Document) string {
			t.Helper()
			kb, _, err := srv.KBForDocs(ctx, docs)
			if err != nil {
				t.Fatal(err)
			}
			return kb.Fingerprint()
		}
		cold := func(docs ...*nlp.Document) string {
			kb, _, err := serve.New(&fakeBackend{byText: true}, serve.Options{}).KBForDocs(ctx, docs)
			if err != nil {
				t.Fatal(err)
			}
			return kb.Fingerprint()
		}

		a, b := doc("a", "alpha"), doc("b", "beta")
		old := fold(a, b, doc("x", "old text"), doc("y", "why"))
		runs := srv.Stats().RunEntries
		srv.InvalidateShards("x")
		if got := srv.Stats().RunEntries; got != runs {
			t.Fatalf("cap %d: run cache holds %d entries after invalidation, want %d", shardCap, got, runs)
		}
		hits := c.Get(serve.CounterRunHits)
		got := fold(a, b, doc("x", "new text"), doc("y", "why"))
		if want := cold(a, b, doc("x", "new text"), doc("y", "why")); got != want || got == old {
			t.Fatalf("cap %d: the replaced document folded through a stale run:\n%s", shardCap, got)
		}
		if shardCap == 0 && c.Get(serve.CounterRunHits) != hits+1 {
			t.Errorf("cap %d: run_hits %d -> %d, want the untouched (a+b) run reused", shardCap, hits, c.Get(serve.CounterRunHits))
		}
	}
}
