package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// treeFixture drives a Tree through a schedule while maintaining the
// reference state: the live shards in arrival order.
type treeFixture struct {
	tree   *Tree
	seqs   []uint64
	shards []*KB
	segs   []*Segment
	next   uint64
}

func (fx *treeFixture) push(rng *rand.Rand) {
	doc := fmt.Sprintf("doc%03d", fx.next)
	fx.pushShard(doc, randShard(rng, doc))
}

func (fx *treeFixture) pushShard(doc string, kb *KB) {
	seg := SealSegment(kb, doc)
	fx.tree = fx.tree.Push(seg, fx.next)
	fx.seqs = append(fx.seqs, fx.next)
	fx.shards = append(fx.shards, kb)
	fx.segs = append(fx.segs, seg)
	fx.next++
}

func (fx *treeFixture) remove(i int) {
	tr, ok := fx.tree.Remove(fx.seqs[i])
	if !ok {
		panic(fmt.Sprintf("Remove(%d) not found", fx.seqs[i]))
	}
	fx.tree = tr
	fx.seqs = append(fx.seqs[:i], fx.seqs[i+1:]...)
	fx.shards = append(fx.shards[:i], fx.shards[i+1:]...)
	fx.segs = append(fx.segs[:i], fx.segs[i+1:]...)
}

func (fx *treeFixture) check(t *testing.T, label string) {
	t.Helper()
	if fx.tree.Len() != len(fx.shards) {
		t.Fatalf("%s: tree.Len() = %d, want %d", label, fx.tree.Len(), len(fx.shards))
	}
	sameKB(t, fx.tree.Materialize(), flatMerge(fx.shards), label)
}

// TestTreeRandomizedSchedulesMatchFlatMerge: after any randomized
// interleaving of pushes and removals (front, middle, back), the tree
// materializes to exactly the flat document-order merge of the live
// shards.
func TestTreeRandomizedSchedulesMatchFlatMerge(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for step := 0; step < 40; step++ {
			if len(fx.shards) == 0 || rng.Intn(3) > 0 {
				fx.push(rng)
			} else {
				fx.remove(rng.Intn(len(fx.shards)))
			}
			fx.check(t, fmt.Sprintf("seed %d step %d", seed, step))
		}
		// Drain completely.
		for len(fx.shards) > 0 {
			fx.remove(0)
			fx.check(t, fmt.Sprintf("seed %d drain @%d", seed, len(fx.shards)))
		}
		if fx.tree.Len() != 0 || fx.tree.Materialize().Len() != 0 {
			t.Fatalf("seed %d: drained tree not empty", seed)
		}
	}
}

// TestTreeSlidingWindowRunBound: under a steady FIFO slide the number of
// runs stays logarithmic in the window — the structural property that
// makes per-ingest work O(log W) instead of O(W).
func TestTreeSlidingWindowRunBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const window = 64
	fx := &treeFixture{tree: NewTree(nil)}
	maxRuns := 0
	for i := 0; i < 4*window; i++ {
		fx.push(rng)
		if len(fx.shards) > window {
			fx.remove(0)
		}
		if n := len(fx.tree.runs); n > maxRuns {
			maxRuns = n
		}
	}
	fx.check(t, "sliding steady state")
	// 2·log2(64)+2 = 14; anything near the window would mean the LSM
	// invariant broke and slides degraded to flat merges.
	if maxRuns > 14 {
		t.Fatalf("run count reached %d for window %d; want O(log W)", maxRuns, window)
	}
}

// TestTreePersistence: Push and Remove must not disturb earlier trees —
// snapshots hold them as immutable versions.
func TestTreePersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fx := &treeFixture{tree: NewTree(nil)}
	type version struct {
		tree *Tree
		fp   string
	}
	var history []version
	for step := 0; step < 20; step++ {
		if len(fx.shards) == 0 || rng.Intn(3) > 0 {
			fx.push(rng)
		} else {
			fx.remove(rng.Intn(len(fx.shards)))
		}
		history = append(history, version{fx.tree, fx.tree.Materialize().Fingerprint()})
	}
	for i, v := range history {
		if got := v.tree.Materialize().Fingerprint(); got != v.fp {
			t.Fatalf("version %d changed under later operations", i)
		}
	}
}

// TestTreeLookupMatchesMaterialized: point lookups across runs return
// the same winning record the materialized KB holds, and entity lookups
// return the same merged record.
func TestTreeLookupMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 9; i++ {
		fx.push(rng)
	}
	fx.remove(2)
	fx.remove(4)
	kb := fx.tree.Materialize()

	keyOf := make(map[int]string, len(kb.facts))
	for k, i := range kb.byKey {
		keyOf[i] = k
	}
	for i := range kb.facts {
		f, ok := fx.tree.Lookup(keyOf[i])
		if !ok {
			t.Fatalf("Lookup(%q) missed a live fact", keyOf[i])
		}
		w := &kb.facts[i]
		if f.Confidence != w.Confidence || f.Source != w.Source || f.Pattern != w.Pattern {
			t.Fatalf("Lookup(%q) = %+v, materialized %+v", keyOf[i], f, w)
		}
	}
	if _, ok := fx.tree.Lookup("absent-key"); ok {
		t.Fatal("Lookup matched an absent key")
	}
	for _, e := range kb.Entities() {
		got, ok := fx.tree.LookupEntity(e.ID)
		if !ok {
			t.Fatalf("LookupEntity(%s) missed", e.ID)
		}
		if entityChanged(&got, e) {
			t.Fatalf("LookupEntity(%s) = %+v, materialized %+v", e.ID, got, *e)
		}
	}
	if _, ok := fx.tree.LookupEntity("absent-entity"); ok {
		t.Fatal("LookupEntity matched an absent ID")
	}
}

// TestTreeRemoveUnknownSeq: removing a sequence the tree does not hold
// (never pushed, already removed, or in a dead gap of a merged span) is
// a not-found no-op.
func TestTreeRemoveUnknownSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 4; i++ {
		fx.push(rng)
	}
	if _, ok := fx.tree.Remove(99); ok {
		t.Error("Remove(unknown) reported found")
	}
	victim := fx.seqs[1]
	fx.remove(1)
	if _, ok := fx.tree.Remove(victim); ok {
		t.Error("double Remove reported found")
	}
	fx.check(t, "after unknown removals")
}
