package qkbfly_test

import (
	"context"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/engine"
)

// TestBuildKBContextMatchesWrappers: the back-compat wrappers are thin
// adapters over BuildKBContext — all paths must produce identical KBs,
// at any parallelism.
func TestBuildKBContextMatchesWrappers(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	const nDocs = 8
	ctx := context.Background()

	wrapKB, _ := sys.BuildKB(corpus.Docs(f.world.WikiDataset(nDocs)))
	want := wrapKB.Fingerprint()

	for _, p := range []int{1, 3} {
		kb, bs, err := sys.BuildKBContext(ctx, corpus.Docs(f.world.WikiDataset(nDocs)),
			qkbfly.WithParallelism(p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if kb.Fingerprint() != want {
			t.Errorf("BuildKBContext(p=%d) differs from BuildKB", p)
		}
		if bs.Parallelism != p {
			t.Errorf("p=%d: stats report parallelism %d", p, bs.Parallelism)
		}
	}

	winKB, _, err := sys.BuildKBContext(ctx, corpus.Docs(f.world.WikiDataset(nDocs)),
		qkbfly.WithCorefWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	optKB, _, err := sys.BuildKBContext(ctx, corpus.Docs(f.world.WikiDataset(nDocs)),
		qkbfly.WithCorefWindow(2), qkbfly.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if winKB.Fingerprint() != optKB.Fingerprint() {
		t.Error("WithCorefWindow result depends on parallelism")
	}
}

// TestBuildKBForQueryContextEmptyRetrieval: an empty retrieval (no index
// hits, or no index at all) must return a usable empty KB with consistent
// BuildStats — zeroed stage timings and an empty, non-nil PerDocElapsed —
// and per-call options (the coref window) must be accepted exactly like
// on the non-empty path. Regression test: the empty path used to bypass
// parts of the engine setup and hand back nil accounting.
func TestBuildKBForQueryContextEmptyRetrieval(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	systems := map[string]*qkbfly.System{
		"with-index": qkbfly.New(f.res, qkbfly.DefaultConfig()),
		"no-index": qkbfly.New(qkbfly.Resources{
			Repo: f.res.Repo, Patterns: f.res.Patterns, Stats: f.res.Stats,
		}, qkbfly.DefaultConfig()),
	}
	optVariants := map[string][]qkbfly.Option{
		"no-options":   nil,
		"coref-window": {qkbfly.WithCorefWindow(2), qkbfly.WithParallelism(3)},
	}
	for sysName, sys := range systems {
		for optName, opts := range optVariants {
			name := sysName + "/" + optName
			// A query whose terms appear in no indexed document.
			kb, docs, bs, err := sys.BuildKBForQueryContext(ctx, "zzxqv wqzzk", "news", 3, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(docs) != 0 {
				t.Errorf("%s: retrieved %d docs, want 0", name, len(docs))
			}
			if kb == nil || kb.Len() != 0 {
				t.Errorf("%s: kb = %v, want empty non-nil KB", name, kb)
			}
			if bs == nil {
				t.Fatalf("%s: nil BuildStats", name)
			}
			if bs.PerDocElapsed == nil || len(bs.PerDocElapsed) != 0 {
				t.Errorf("%s: PerDocElapsed = %v, want empty non-nil slice", name, bs.PerDocElapsed)
			}
			if bs.StageElapsed != (engine.StageTimings{}) {
				t.Errorf("%s: stage timings = %+v, want zeroed", name, bs.StageElapsed)
			}
			if bs.Documents != 0 || bs.Sentences != 0 || bs.Clauses != 0 {
				t.Errorf("%s: counts = %+v, want zeroed", name, bs)
			}
			if bs.Parallelism != 1 {
				t.Errorf("%s: Parallelism = %d, want 1 (no work to parallelize)", name, bs.Parallelism)
			}
		}
	}
}

// TestBuildKBForQueryContextCancel: a pre-cancelled context surfaces the
// error and returns an empty (but usable) KB.
func TestBuildKBForQueryContextCancel(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	id := f.world.EntitiesOfType("ACTOR")[0]
	name := f.world.Entity(id).Name

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	kb, _, _, err := sys.BuildKBForQueryContext(ctx, name, "wikipedia", 1)
	if err == nil {
		t.Fatal("expected context error")
	}
	if kb == nil || kb.Len() != 0 {
		t.Errorf("cancelled query build returned %v", kb)
	}
}
