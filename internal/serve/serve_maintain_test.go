package serve_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
	"qkbfly/internal/sched"
	"qkbfly/internal/serve"
	"qkbfly/internal/stats"
)

// fakeDocs builds n fake-pipeline documents with sequential IDs.
func fakeDocs(prefix string, lo, n int) []*nlp.Document {
	docs := make([]*nlp.Document, n)
	for i := range docs {
		id := fmt.Sprintf("%s%d", prefix, lo+i)
		docs[i] = &nlp.Document{ID: id, Title: id}
	}
	return docs
}

func mustPattern(t *testing.T, src string) *query.Pattern {
	t.Helper()
	p, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sortedRowKeys(rows []query.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPatternMaintainWarmAcrossIngest: a cached pattern answer rolls
// forward through ingests and evictions — the post-change query is a
// warm hit (no recomputation) with exactly the rows a cold evaluation
// of the new version produces.
func TestPatternMaintainWarmAcrossIngest(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ctx := context.Background()
	c := srv.Counters()
	p := mustPattern(t, `?d mentions ?c`)

	snap1, _, err := sess.Ingest(ctx, fakeDocs("m", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	rows1, cached, err := srv.QueryPattern(ctx, snap1, p)
	if err != nil || cached || len(rows1) != 2 {
		t.Fatalf("prime query: rows=%d cached=%v err=%v, want 2 fresh rows", len(rows1), cached, err)
	}

	// Subscribe before the write so the delta event is guaranteed, then
	// roll the cache synchronously — what MaintainPatterns does from its
	// goroutine.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	deltas := sess.WatchDeltas(wctx)
	snap2, _, err := sess.Ingest(ctx, fakeDocs("m", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	ev := <-deltas
	if ev.Snap.ContentID() != snap2.ContentID() {
		t.Fatal("delta event snapshot is not the published version")
	}
	srv.RollPatternCache(snap1.ContentID(), ev.Snap, ev.Delta)
	if got := c.Get(serve.CounterPatternMaintained); got != 1 {
		t.Fatalf("pattern_maintained = %d, want 1", got)
	}

	misses := c.Get(serve.CounterPatternMisses)
	rows2, cached, err := srv.QueryPattern(ctx, snap2, p)
	if err != nil || !cached {
		t.Fatalf("post-ingest query: cached=%v err=%v, want warm maintained hit", cached, err)
	}
	if got := c.Get(serve.CounterPatternMisses); got != misses {
		t.Fatalf("pattern_misses moved %d -> %d; maintained entry was recomputed", misses, got)
	}
	cold, _, err := serve.New(&fakeBackend{}, serve.Options{}).QueryPattern(ctx, snap2, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRowKeys(rows2), sortedRowKeys(cold); !sameKeys(got, want) {
		t.Fatalf("maintained rows %v, cold evaluation %v", got, want)
	}

	// Eviction: the removal-side delta re-verifies affected rows and
	// drops the evicted document's answer.
	snap3, n := sess.Evict("m0")
	if n != 1 {
		t.Fatalf("evicted %d docs, want 1", n)
	}
	ev = <-deltas
	srv.RollPatternCache(snap2.ContentID(), ev.Snap, ev.Delta)
	rows3, cached, err := srv.QueryPattern(ctx, snap3, p)
	if err != nil || !cached {
		t.Fatalf("post-evict query: cached=%v err=%v, want warm maintained hit", cached, err)
	}
	cold3, _, err := serve.New(&fakeBackend{}, serve.Options{}).QueryPattern(ctx, snap3, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRowKeys(rows3), sortedRowKeys(cold3); !sameKeys(got, want) {
		t.Fatalf("post-evict maintained rows %v, cold evaluation %v", got, want)
	}
	if len(rows3) != 2 {
		t.Fatalf("post-evict answer has %d rows, want 2", len(rows3))
	}
}

// TestPatternMaintainFallbacks: limit-capped entries and over-budget
// deltas are not maintained — they fall back to recompute-on-miss and
// the fallback counter says so.
func TestPatternMaintainFallbacks(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ctx := context.Background()
	c := srv.Counters()

	limited := mustPattern(t, `?d mentions ?c`)
	limited.Limit = 1
	snap1, _, err := sess.Ingest(ctx, fakeDocs("f", 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.QueryPattern(ctx, snap1, limited); err != nil {
		t.Fatal(err)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	deltas := sess.WatchDeltas(wctx)
	snap2, _, err := sess.Ingest(ctx, fakeDocs("f", 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	ev := <-deltas
	srv.RollPatternCache(snap1.ContentID(), ev.Snap, ev.Delta)
	if got := c.Get(serve.CounterPatternMaintainFallbacks); got != 1 {
		t.Fatalf("pattern_maintain_fallbacks = %d, want 1 (limit-capped entry)", got)
	}
	if got := c.Get(serve.CounterPatternMaintained); got != 0 {
		t.Fatalf("pattern_maintained = %d, want 0", got)
	}
	if _, cached, err := srv.QueryPattern(ctx, snap2, limited); err != nil || cached {
		t.Fatalf("limit-capped entry survived maintenance: cached=%v err=%v", cached, err)
	}

	// A delta larger than the maintenance budget invalidates instead of
	// rolling: one fake doc is one added fact, so 513 docs overflow the
	// 512-fact changed budget.
	unlimited := mustPattern(t, `?d mentions ?c`)
	if _, _, err := srv.QueryPattern(ctx, snap2, unlimited); err != nil {
		t.Fatal(err)
	}
	snap3, _, err := sess.Ingest(ctx, fakeDocs("big", 0, 513))
	if err != nil {
		t.Fatal(err)
	}
	ev = <-deltas
	fallbacks := c.Get(serve.CounterPatternMaintainFallbacks)
	srv.RollPatternCache(snap2.ContentID(), ev.Snap, ev.Delta)
	if got := c.Get(serve.CounterPatternMaintainFallbacks); got <= fallbacks {
		t.Fatalf("over-budget delta did not count fallbacks (%d -> %d)", fallbacks, got)
	}
	if _, cached, err := srv.QueryPattern(ctx, snap3, unlimited); err != nil || cached {
		t.Fatalf("over-budget entry survived maintenance: cached=%v err=%v", cached, err)
	}
}

// TestPatternMaintainBackgroundLoop: the MaintainPatterns goroutine
// rolls entries forward on its own as versions publish, and its stop
// function shuts the loop down cleanly.
func TestPatternMaintainBackgroundLoop(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ctx := context.Background()
	c := srv.Counters()
	p := mustPattern(t, `?d mentions ?c`)

	snap1, _, err := sess.Ingest(ctx, fakeDocs("bg", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	stop := srv.MaintainPatterns(ctx, sess)
	defer stop()
	if _, _, err := srv.QueryPattern(ctx, snap1, p); err != nil {
		t.Fatal(err)
	}
	snap2, _, err := sess.Ingest(ctx, fakeDocs("bg", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Get(serve.CounterPatternMaintained) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance loop never rolled the entry forward")
		}
		time.Sleep(time.Millisecond)
	}
	rows, cached, err := srv.QueryPattern(ctx, snap2, p)
	if err != nil || !cached || len(rows) != 4 {
		t.Fatalf("background-maintained query: rows=%d cached=%v err=%v, want 4 warm rows", len(rows), cached, err)
	}
	stop() // idempotent with the deferred call; must not hang
}

// TestPatternCacheReplacedDocIsFresh: with no maintenance loop rolling
// the cache, a document evicted and re-ingested under its ID with new
// text must not bring back the answer cached for its old text — the
// content, and so the key, differs, although the documents' IDs are the
// same as when the answer was cached.
func TestPatternCacheReplacedDocIsFresh(t *testing.T) {
	srv := serve.New(&fakeBackend{byText: true}, serve.Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ctx := context.Background()
	p := mustPattern(t, `?d mentions ?c`)
	doc := func(id, text string) *nlp.Document { return &nlp.Document{ID: id, Title: id, Text: text} }

	snap1, _, err := sess.Ingest(ctx, []*nlp.Document{doc("a", "alpha"), doc("x", "old text")})
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := srv.QueryPattern(ctx, snap1, p); err != nil || cached {
		t.Fatalf("prime query: cached=%v err=%v", cached, err)
	}
	sess.Evict("x")
	srv.InvalidateShards("x")
	snap3, _, err := sess.Ingest(ctx, []*nlp.Document{doc("x", "new text")})
	if err != nil {
		t.Fatal(err)
	}
	rows, cached, err := srv.QueryPattern(ctx, snap3, p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := snap3.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRowKeys(rows), sortedRowKeys(fresh.Collect()); !sameKeys(got, want) {
		t.Fatalf("answer after replacing x (cached=%v): %v, want %v", cached, got, want)
	}
}

// TestPatternCacheHitsAfterAdoptedCompaction: an adopted background
// compaction swaps the current snapshot for one over a different run
// layout but the same content, so a query on it hits the entry
// maintenance rolled to that version. Forty-byte document IDs make the
// layout visible to any key built from run labels.
func TestPatternCacheHitsAfterAdoptedCompaction(t *testing.T) {
	srv := serve.New(&fakeBackend{}, serve.Options{})
	counters := stats.NewCounterSet()
	sess := srv.OpenSession(qkbfly.SessionOptions{DeferCompaction: true, Counters: counters})
	defer sess.Close()
	sc := sched.New(sched.Options{Workers: 1, Counters: counters})
	defer sc.Close()
	maint := qkbfly.NewMaintainer(sess, sc, qkbfly.MaintainerOptions{Counters: counters})
	defer maint.Close()
	ctx := context.Background()
	c := srv.Counters()
	p := mustPattern(t, `?d mentions ?c`)
	docs := func(lo, n int) []*nlp.Document {
		out := make([]*nlp.Document, n)
		for i := range out {
			id := fmt.Sprintf("%040d", lo+i)
			out[i] = &nlp.Document{ID: id, Title: id}
		}
		return out
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	for i := 0; i < 8; i++ {
		if _, _, err := sess.Ingest(ctx, docs(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sc.Drain()
	stop := srv.MaintainPatterns(ctx, sess)
	defer stop()
	if _, _, err := srv.QueryPattern(ctx, sess.Snapshot(), p); err != nil {
		t.Fatal(err)
	}

	// Four loose leaves at once: the version schedules a compaction.
	adopted := counters.Get(qkbfly.CounterMaintCompactions)
	snap, _, err := sess.Ingest(ctx, docs(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitFor("the roll", func() bool { return c.Get(serve.CounterPatternMaintained) == 1 })
	waitFor("the adoption", func() bool { return counters.Get(qkbfly.CounterMaintCompactions) > adopted })
	cur := sess.Snapshot()
	if cur == snap || cur.Version() != snap.Version() || cur.Tree().RunCount() >= snap.Tree().RunCount() {
		t.Fatalf("no compacted handle at v%d (runs %d -> %d)", snap.Version(), snap.Tree().RunCount(), cur.Tree().RunCount())
	}
	misses := c.Get(serve.CounterPatternMisses)
	rows, cached, err := srv.QueryPattern(ctx, cur, p)
	if err != nil || !cached || len(rows) != 12 {
		t.Fatalf("query after adoption: rows=%d cached=%v err=%v, want a hit on 12 rows", len(rows), cached, err)
	}
	if got := c.Get(serve.CounterPatternMisses); got != misses {
		t.Fatalf("pattern_misses %d -> %d after adoption", misses, got)
	}
}
