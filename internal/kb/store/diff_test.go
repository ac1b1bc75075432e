package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDiffApplyPropertyRandomized: the satellite property — for
// randomized segment pairs a and b, apply(a, Diff(a, b)) fingerprints
// identically to b. Pairs are built as overlapping windows of one shard
// stream so all three delta classes (added, removed, upgraded) occur.
func TestDiffApplyPropertyRandomized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 4 + rng.Intn(6)
		shards := make([]*KB, n)
		for i := range shards {
			shards[i] = randShard(rng, fmt.Sprintf("doc%02d", i))
		}
		// a = merge of a random window, b = merge of another random
		// window over the same stream: shared docs keep keys stable,
		// disjoint docs add/remove, and key collisions across docs
		// produce in-place winner changes.
		lo1, hi1 := rng.Intn(n/2), n/2+rng.Intn(n/2)
		lo2, hi2 := rng.Intn(n/2), n/2+rng.Intn(n/2)
		a := flatMerge(shards[lo1 : hi1+1])
		b := flatMerge(shards[lo2 : hi2+1])

		d := Diff(a, b)
		got := d.Apply(a)
		if got.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: apply(a, Diff(a,b)) != b\n--- got ---\n%s\n--- want ---\n%s",
				seed, got.Fingerprint(), b.Fingerprint())
		}
		// The reverse direction must hold too.
		rd := Diff(b, a)
		if rd.Apply(b).Fingerprint() != a.Fingerprint() {
			t.Fatalf("seed %d: apply(b, Diff(b,a)) != a", seed)
		}
	}
}

// TestDiffConfidenceUpgradeOnly: a pair differing only in one fact's
// confidence (same keys, same entities) yields exactly one Upgraded
// entry carrying the new state, and Apply reconstructs it.
func TestDiffConfidenceUpgradeOnly(t *testing.T) {
	mk := func(conf float64, doc string) *KB {
		kb := New()
		kb.AddEntity(EntityRecord{ID: "E", Name: "E", Mentions: []string{"E"}})
		kb.AddFact(fact(doc, 0, "E", "be", conf, Value{Literal: "thing"}))
		kb.AddFact(fact("base", 1, "E", "have", 0.7, Value{Literal: "prop"}))
		return kb
	}
	a, b := mk(0.4, "low"), mk(0.6, "high")
	d := Diff(a, b)
	if len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Upgraded) != 1 {
		t.Fatalf("delta = %+v, want exactly one upgrade", d)
	}
	up := d.Upgraded[0]
	if up.Confidence != 0.6 || up.Source.DocID != "high" {
		t.Fatalf("upgrade carries %+v, want the new state", up)
	}
	if len(d.AddedEntities)+len(d.ChangedEntities)+len(d.RemovedEntities) != 0 {
		t.Fatalf("entity delta unexpectedly non-empty: %+v", d)
	}
	if d.Apply(a).Fingerprint() != b.Fingerprint() {
		t.Fatal("apply of upgrade-only delta does not reconstruct b")
	}
}

// TestDiffIdenticalIsEmpty: diffing a KB against an equal one is empty,
// and an empty delta applies as the identity.
func TestDiffIdenticalIsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randShard(rng, "d")
	b := New()
	b.Merge(a)
	d := Diff(a, b)
	if !d.Empty() {
		t.Fatalf("diff of identical KBs = %+v", d)
	}
	if d.Apply(a).Fingerprint() != a.Fingerprint() {
		t.Fatal("empty delta is not the identity")
	}
}

// TestDiffTreesMatchesFlatDiff: the tree-candidate diff (the session's
// sliding-ingest fast path) must equal the flat byKey diff of the two
// materialized versions, for randomized push/remove transitions.
func TestDiffTreesMatchesFlatDiff(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for i := 0; i < 6+rng.Intn(4); i++ {
			fx.push(rng)
		}
		old := fx.tree
		oldKB := old.Materialize()

		// Transition: push 1-2 new docs, remove 0-2 old ones.
		var changed []*Segment
		for i := 0; i < 1+rng.Intn(2); i++ {
			fx.push(rng)
			changed = append(changed, fx.segs[len(fx.segs)-1])
		}
		for i := 0; i < rng.Intn(3) && len(fx.shards) > 1; i++ {
			j := rng.Intn(len(fx.shards) - 1)
			changed = append(changed, fx.segs[j])
			fx.remove(j)
		}

		got, _ := DiffTrees(old, fx.tree, changed)
		want := Diff(oldKB, fx.tree.Materialize())
		assertDeltasEqual(t, got, want, fmt.Sprintf("seed %d", seed))

		// And the diff applies: reconstructing the new version from the
		// old one through the tree-computed delta.
		if got.Apply(oldKB).Fingerprint() != fx.tree.Materialize().Fingerprint() {
			t.Fatalf("seed %d: tree delta does not reconstruct the new version", seed)
		}
	}
}

// TestDiffTreesLooseBatch: the shape a batched ingest publishes — 64
// documents appended as loose leaf runs while some compacted and some
// loose documents are evicted — diffs, through DiffTrees' walk over the
// changed leaves' own records, to the flat Diff of the two materialized
// versions, and its identity change takes the old identity to the new.
func TestDiffTreesLooseBatch(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for i := 0; i < 24; i++ {
			doc := fmt.Sprintf("doc%03d", fx.next)
			fx.pushShard(doc, respelledShard(rng, doc))
		}
		// Two batches: the second starts from a tree that still holds
		// the first batch's loose runs and evicts some of them.
		for batch := 0; batch < 2; batch++ {
			old := fx.tree
			oldKB := old.Materialize()
			var changed []*Segment
			for i := 0; i < 64; i++ {
				doc := fmt.Sprintf("doc%03d", fx.next)
				kb := respelledShard(rng, doc)
				seg := SealSegment(kb, doc)
				fx.tree = fx.tree.Append(seg, fx.next)
				fx.seqs = append(fx.seqs, fx.next)
				fx.shards = append(fx.shards, kb)
				fx.segs = append(fx.segs, seg)
				fx.next++
				changed = append(changed, seg)
			}
			for i := 0; i < 6+rng.Intn(6); i++ {
				j := rng.Intn(len(fx.shards) - 64)
				changed = append(changed, fx.segs[j])
				fx.remove(j)
			}
			newKB := fx.tree.Materialize()
			label := fmt.Sprintf("seed %d batch %d", seed, batch)

			d, did := DiffTrees(old, fx.tree, changed)
			assertDeltasEqual(t, d, Diff(oldKB, newKB), label)
			if d.Empty() {
				t.Fatalf("%s: empty delta", label)
			}
			if got, want := oldKB.Identity().Add(did), newKB.Identity(); got != want {
				t.Fatalf("%s: folded identity %s, want %s", label, got.Hex(), want.Hex())
			}
			if d.Apply(oldKB).Fingerprint() != newKB.Fingerprint() {
				t.Fatalf("%s: delta does not reconstruct the new version", label)
			}
		}
	}
}

func assertDeltasEqual(t *testing.T, got, want Delta, label string) {
	t.Helper()
	factsEq := func(kind string, g, w []Fact) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s count %d, want %d\n got: %v\nwant: %v", label, kind, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i].String() != w[i].String() || g[i].Confidence != w[i].Confidence ||
				g[i].Source != w[i].Source || g[i].Pattern != w[i].Pattern {
				t.Fatalf("%s: %s[%d] = %+v, want %+v", label, kind, i, g[i], w[i])
			}
		}
	}
	factsEq("Added", got.Added, want.Added)
	factsEq("Upgraded", got.Upgraded, want.Upgraded)
	factsEq("Removed", got.Removed, want.Removed)
	entsEq := func(kind string, g, w []EntityRecord) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s count %d, want %d", label, kind, len(g), len(w))
		}
		for i := range g {
			if g[i].ID != w[i].ID || entityChanged(&g[i], &w[i]) {
				t.Fatalf("%s: %s[%d] = %+v, want %+v", label, kind, i, g[i], w[i])
			}
		}
	}
	entsEq("AddedEntities", got.AddedEntities, want.AddedEntities)
	entsEq("ChangedEntities", got.ChangedEntities, want.ChangedEntities)
	entsEq("RemovedEntities", got.RemovedEntities, want.RemovedEntities)
}
