package engine_test

import (
	"context"
	"testing"

	"qkbfly/internal/engine"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
)

// synthShard builds a deterministic little shard for one "document".
func synthShard(doc string, conf float64) *store.KB {
	kb := store.New()
	kb.AddEntity(store.EntityRecord{ID: "E_" + doc, Name: doc, Mentions: []string{doc}, Types: []string{"DOC"}})
	kb.AddEntity(store.EntityRecord{ID: "E_shared", Name: "shared", Mentions: []string{doc + "-alias"}})
	kb.AddFact(store.Fact{
		Subject:    store.Value{EntityID: "E_" + doc},
		Relation:   "mention",
		Objects:    []store.Value{{EntityID: "E_shared"}},
		Confidence: conf,
		Source:     store.Provenance{DocID: doc},
	})
	kb.AddFact(store.Fact{ // identical key across all shards: dedup target
		Subject:    store.Value{EntityID: "E_shared"},
		Relation:   "be",
		Objects:    []store.Value{{Literal: "shared thing"}},
		Confidence: conf,
		Source:     store.Provenance{DocID: doc},
	})
	return kb
}

// TestMergeShardsPrefixSuffixMatchesBatch: merging a prefix of the
// shards, then folding the merged suffix into a clone of it, reproduces
// the one-pass MergeShards result for every split point — the flat merge
// re-brackets like the segment tree does — including nil entries and
// cross-shard dedup with confidence ties.
func TestMergeShardsPrefixSuffixMatchesBatch(t *testing.T) {
	shards := []*store.KB{
		synthShard("d1", 0.6),
		nil, // unprocessed slot, as after a cancelled run
		synthShard("d2", 0.9),
		synthShard("d3", 0.9), // ties with d2 on the shared fact
		synthShard("d4", 0.2),
	}
	want := engine.MergeShards(shards).Fingerprint()

	for split := 0; split <= len(shards); split++ {
		kb := engine.MergeShards(shards[:split])
		next := kb.Clone()
		next.Merge(engine.MergeShards(shards[split:]))
		if got := next.Fingerprint(); got != want {
			t.Errorf("split at %d: prefix + suffix merge differs from batch", split)
		}
		// The pre-split KB must be untouched by the continuation.
		if kb.Fingerprint() != engine.MergeShards(shards[:split]).Fingerprint() {
			t.Errorf("split at %d: continuation mutated the base KB", split)
		}
	}
}

// TestMergeShardsPrefixSuffixRealShards: the same split-anywhere
// property over real engine shards from the sample corpus.
func TestMergeShardsPrefixSuffixRealShards(t *testing.T) {
	eng, docs := newTestEngine(t, 6)
	shards, _, err := eng.RunShards(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.MergeShards(shards).Fingerprint()
	for _, split := range []int{1, 3, 5} {
		next := engine.MergeShards(shards[:split])
		next.Merge(engine.MergeShards(shards[split:]))
		if next.Fingerprint() != want {
			t.Errorf("split at %d: prefix + suffix merge differs from batch", split)
		}
	}
}

// newTestEngine builds an engine over the shared corpus fixture with n
// fresh documents.
func newTestEngine(t *testing.T, n int) (*engine.Engine, []*nlp.Document) {
	t.Helper()
	f := getFixture(t)
	return engine.New(f.config()), f.docs(n)
}
