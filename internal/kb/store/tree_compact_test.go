package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// appendLoose pushes a fresh random shard through Append (deferred
// compaction) instead of Push.
func (fx *treeFixture) appendLoose(rng *rand.Rand) {
	doc := fmt.Sprintf("doc%03d", fx.next)
	kb := randShard(rng, doc)
	seg := SealSegment(kb, doc)
	fx.tree = fx.tree.Append(seg, fx.next)
	fx.seqs = append(fx.seqs, fx.next)
	fx.shards = append(fx.shards, kb)
	fx.segs = append(fx.segs, seg)
	fx.next++
}

// TestTreeCompactReproducesPushLayout: a tree grown purely by Append
// compacts to exactly the layout sequential Push would have built — same
// run count, same arrival span per run, same materialized KB. This
// is what lets a background job publish its compacted tree back through
// the session with an identity check instead of a re-merge.
func TestTreeCompactReproducesPushLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		loose := NewTree(nil)
		pushed := NewTree(nil)
		for i := 0; i < n; i++ {
			doc := fmt.Sprintf("doc%03d", i)
			seg := SealSegment(randShard(rng, doc), doc)
			loose = loose.Append(seg, uint64(i))
			pushed = pushed.Push(seg, uint64(i))
		}
		if loose.RunCount() != n {
			t.Fatalf("n=%d: Append compacted: %d runs", n, loose.RunCount())
		}
		compacted, changed := loose.Compact()
		if wantChange := n > 1; changed != wantChange {
			t.Fatalf("n=%d: Compact changed=%v, want %v", n, changed, wantChange)
		}
		if compacted.RunCount() != pushed.RunCount() {
			t.Fatalf("n=%d: compacted to %d runs, Push builds %d", n, compacted.RunCount(), pushed.RunCount())
		}
		for i, r := range compacted.runs {
			if p := pushed.runs[i]; r.lo != p.lo || r.hi != p.hi || r.leaves != p.leaves {
				t.Fatalf("n=%d: run %d spans [%d,%d] (%d leaves), Push builds [%d,%d] (%d leaves)",
					n, i, r.lo, r.hi, r.leaves, p.lo, p.hi, p.leaves)
			}
		}
		if got, want := compacted.Materialize().Fingerprint(), pushed.Materialize().Fingerprint(); got != want {
			t.Fatalf("n=%d: compacted tree fingerprint differs from Push-built tree", n)
		}
	}
}

// TestTreeCompactRunBoundUnderDeferral: a sliding window run with
// deferred compaction — appends accumulate loose runs, evictions split
// merged runs, and a periodic Compact plays the background job. The
// compacted run count must stay O(log W) and the loose run count bounded
// by (compacted bound + deferral debt), and every intermediate tree must
// still materialize to the flat merge of the live shards.
func TestTreeCompactRunBoundUnderDeferral(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const window = 64
	const compactEvery = 8 // deferral debt between background compactions
	fx := &treeFixture{tree: NewTree(nil)}
	maxLoose, maxCompacted := 0, 0
	sinceCompact := 0
	for i := 0; i < 4*window; i++ {
		fx.appendLoose(rng)
		if len(fx.shards) > window {
			fx.remove(0)
		}
		sinceCompact++
		if n := fx.tree.RunCount(); n > maxLoose {
			maxLoose = n
		}
		if sinceCompact >= compactEvery {
			before := fx.tree.Materialize().Fingerprint()
			compacted, _ := fx.tree.Compact()
			if got := compacted.Materialize().Fingerprint(); got != before {
				t.Fatalf("step %d: compaction changed the KB fingerprint", i)
			}
			fx.tree = compacted
			sinceCompact = 0
			if n := fx.tree.RunCount(); n > maxCompacted {
				maxCompacted = n
			}
		}
	}
	fx.check(t, "deferred sliding steady state")
	// Same bound as TestTreeSlidingWindowRunBound for the compacted
	// layout; the loose layout may additionally carry one leaf per
	// deferred append.
	if maxCompacted > 14 {
		t.Fatalf("compacted run count reached %d for window %d; want O(log W)", maxCompacted, window)
	}
	if maxLoose > 14+compactEvery {
		t.Fatalf("loose run count reached %d; want <= O(log W) + %d deferral debt", maxLoose, compactEvery)
	}
}

// TestTreeCompactLookupWinners: cross-run Lookup winners (and entity
// unions) are identical on the loose tree, the compacted tree, and the
// materialized KB — deferral changes the run layout, never an answer.
func TestTreeCompactLookupWinners(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 11; i++ {
		fx.appendLoose(rng)
	}
	fx.remove(3)
	fx.remove(5)
	loose := fx.tree
	compacted, changed := loose.Compact()
	if !changed {
		t.Fatal("11 loose runs did not compact")
	}
	kb := compacted.Materialize()
	keyOf := make(map[int]string, len(kb.facts))
	for k, i := range kb.byKey {
		keyOf[i] = k
	}
	for i := range kb.facts {
		w := &kb.facts[i]
		for _, tr := range []*Tree{loose, compacted} {
			f, ok := tr.Lookup(keyOf[i])
			if !ok {
				t.Fatalf("Lookup(%q) missed a live fact", keyOf[i])
			}
			if f.Confidence != w.Confidence || f.Source != w.Source || f.Pattern != w.Pattern {
				t.Fatalf("Lookup(%q) = %+v, materialized %+v", keyOf[i], f, w)
			}
		}
	}
	for _, e := range kb.Entities() {
		got, ok := loose.LookupEntity(e.ID)
		if !ok || entityChanged(&got, e) {
			t.Fatalf("loose LookupEntity(%s) = %+v ok=%v, materialized %+v", e.ID, got, ok, *e)
		}
	}
}

// TestTreeCompactCancelled: a cancelled compaction (superseded
// background job) returns the original tree unchanged — no partial
// layouts ever escape.
func TestTreeCompactCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 8; i++ {
		fx.appendLoose(rng)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, changed := fx.tree.CompactContext(ctx)
	if changed {
		t.Error("cancelled compaction reported changed")
	}
	if got != fx.tree {
		t.Error("cancelled compaction returned a derived tree")
	}
	// The original is untouched and still compactable.
	if fx.tree.RunCount() != 8 {
		t.Fatalf("loose tree mutated: %d runs", fx.tree.RunCount())
	}
	compacted, changed := fx.tree.Compact()
	if !changed || compacted.RunCount() != 1 {
		t.Fatalf("follow-up Compact: changed=%v runs=%d, want true/1", changed, compacted.RunCount())
	}
}
