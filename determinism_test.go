package qkbfly_test

import (
	"context"
	"strings"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/stats"
)

// TestBuildIsDeterministicWithNameCollisions builds the first 400 wiki
// documents of the default world scaled x8 — where up to eight entities
// share a name and their candidate weights tie — twice in one process,
// on one worker and on four, and requires byte-identical fingerprints.
// A solver that adds its weights in map order failed this in 10 runs of
// 10 (a few fingerprint lines apart each time); at 300 documents in 9.
func TestBuildIsDeterministicWithNameCollisions(t *testing.T) {
	c := corpus.DefaultConfig()
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= 8
	}
	w := corpus.NewWorld(c)
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(w.BackgroundCorpus()), w.Repo, pipe)
	sys := qkbfly.New(qkbfly.Resources{Repo: w.Repo, Patterns: w.Patterns, Stats: st}, qkbfly.DefaultConfig())
	build := func(workers int) string {
		kb, _, err := sys.BuildKBContext(context.Background(), corpus.Docs(w.WikiDataset(400)),
			qkbfly.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		return kb.Fingerprint()
	}
	serial, parallel := build(1), build(4)
	if serial == parallel {
		return
	}
	a, b := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("fingerprints differ (%d vs %d lines); first difference at line %d:\n  %s\n  %s",
				len(a), len(b), i+1, a[i], b[i])
		}
	}
	t.Fatalf("fingerprints differ in length: %d vs %d lines", len(a), len(b))
}
