package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// rebuildSegment seals an edited copy of m's content under m's identity:
// how a broken merge function would hand back a plausible segment.
func rebuildSegment(m *Segment, edit func(facts []Fact, ents []EntityRecord) ([]Fact, []EntityRecord)) *Segment {
	kb := MaterializeRuns([]*Segment{m})
	ents := make([]EntityRecord, 0, len(kb.order))
	for _, e := range kb.Entities() {
		ents = append(ents, copyEntity(e))
	}
	facts, ents := edit(append([]Fact(nil), kb.facts...), ents)
	out := New()
	for _, e := range ents {
		out.AddEntity(e)
	}
	for _, f := range facts {
		out.AddFact(f)
	}
	return SealSegment(out, m.id)
}

// corruptMerges are merge functions that merge and then break the
// result in one way each: lose a fact, fold the inputs in the wrong
// order, or lose an entity mention.
var corruptMerges = map[string]MergeFunc{
	"drop-fact": func(a, b *Segment) *Segment {
		return rebuildSegment(MergeSegments(a, b), func(facts []Fact, ents []EntityRecord) ([]Fact, []EntityRecord) {
			if len(facts) > 0 {
				facts = facts[1:]
			}
			return facts, ents
		})
	},
	"swap-inputs": func(a, b *Segment) *Segment { return MergeSegments(b, a) },
	"drop-mention": func(a, b *Segment) *Segment {
		return rebuildSegment(MergeSegments(a, b), func(facts []Fact, ents []EntityRecord) ([]Fact, []EntityRecord) {
			for i := range ents {
				if n := len(ents[i].Mentions); n > 0 {
					ents[i].Mentions = ents[i].Mentions[:n-1]
					break
				}
			}
			return facts, ents
		})
	},
}

// spanContentsMatch is the span-level reference verdict, from
// fingerprint text: every run of compacted that t does not share must
// materialize to exactly what the run of t it replaces materialize to.
func spanContentsMatch(t, compacted *Tree) bool {
	old, i := t.runs, 0
	for _, n := range compacted.runs {
		if old[i] == n {
			i++
			continue
		}
		var span []*Segment
		for ; i < len(old) && old[i].hi <= n.hi; i++ {
			span = append(span, old[i].seg)
		}
		if MaterializeRuns(span).Fingerprint() != MaterializeRuns([]*Segment{n.seg}).Fingerprint() {
			return false
		}
	}
	return true
}

// TestCompactionPreservesAgainstWholeTreeIdentity: over randomized
// Append/Remove/Compact schedules, with a correct merge and with each
// corrupting one, the span check agrees with the whole-tree identity
// comparison it replaces: every correct compaction passes both, and no
// compaction the whole-tree check refuses passes the span check. The
// span check's own verdict is exactly the span-level fingerprint
// comparison — so where it refuses a compaction the whole-tree check
// would have adopted, a merge really did break its span, and only a run
// outside that span hid it.
func TestCompactionPreservesAgainstWholeTreeIdentity(t *testing.T) {
	merges := map[string]MergeFunc{"correct": nil}
	for name, m := range corruptMerges {
		merges[name] = m
	}
	for name, merge := range merges {
		refused, agreed, total := 0, 0, 0
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(500 + seed))
			fx := &treeFixture{tree: NewTree(merge)}
			for step := 0; step < 60; step++ {
				switch r := rng.Intn(10); {
				case r < 6 || len(fx.shards) < 2:
					fx.appendLoose(rng)
				case r < 8:
					fx.remove(rng.Intn(len(fx.shards)))
				default:
					compacted, changed := fx.tree.Compact()
					if !changed {
						continue
					}
					label := fmt.Sprintf("%s seed %d step %d", name, seed, step)
					oldID, oldFacts, oldEnts := fx.tree.Identity()
					newID, newFacts, newEnts := compacted.Identity()
					whole := oldID == newID && oldFacts == newFacts && oldEnts == newEnts
					span := fx.tree.CompactionPreserves(compacted)
					total++
					if span == whole {
						agreed++
					}
					if merge == nil && !(span && whole) {
						t.Fatalf("%s: correct compaction refused (span %v, whole tree %v)", label, span, whole)
					}
					if span && !whole {
						t.Fatalf("%s: span check adopted a compaction the whole-tree check refuses", label)
					}
					if want := spanContentsMatch(fx.tree, compacted); span != want {
						t.Fatalf("%s: span check says %v, span fingerprints say %v", label, span, want)
					}
					if span {
						fx.tree = compacted // adopted, like the maintainer would
					} else {
						refused++
					}
				}
			}
		}
		t.Logf("%s: %d compactions, %d refused, verdicts agree with the whole-tree check on %d", name, total, refused, agreed)
		if merge != nil && refused == 0 {
			t.Fatalf("%s: no corrupted compaction was ever refused", name)
		}
	}
}

// TestSpanIdentityMatchesTreeIdentity: the memoized span identity of
// every contiguous span of runs, over randomized trees with shared keys
// and entities, equals the from-scratch identity of a tree of exactly
// those runs — on first use, from the memo, and after the runs are
// demoted and fault back in.
func TestSpanIdentityMatchesTreeIdentity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tree, _, _ := buildDemotableTree(t, 600+seed, 20)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 6; i++ {
			tree = tree.Append(SealSegment(typedShard(rng, fmt.Sprintf("loose%d", i)), fmt.Sprintf("loose%d", i)), uint64(100+i))
		}
		for pass, label := range []string{"first use", "memoized", "demoted"} {
			if pass == 2 && demoteAll(tree) == 0 {
				t.Fatal("nothing demoted")
			}
			for i := 0; i < len(tree.runs); i++ {
				for j := i + 1; j <= len(tree.runs); j++ {
					id, facts, ents := (&Tree{runs: tree.runs[i:j]}).Identity()
					if got, want := spanIdentity(tree.runs[i:j]), (segIdentity{id, facts, ents}); got != want {
						t.Fatalf("seed %d %s: runs [%d,%d): span identity %+v, tree identity %+v", seed, label, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestSpanIdentityConcurrent: segments are shared across sessions and
// scheduler workers, so several checks may fill one segment's memo at
// once; every one of them must see the from-scratch identity.
func TestSpanIdentityConcurrent(t *testing.T) {
	tree, _, _ := buildDemotableTree(t, 650, 24)
	want := make([]segIdentity, len(tree.runs))
	for i := range tree.runs {
		id, facts, ents := (&Tree{runs: tree.runs[i:]}).Identity()
		want[i] = segIdentity{id, facts, ents}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tree.runs {
				if got := spanIdentity(tree.runs[i:]); got != want[i] {
					t.Errorf("runs [%d:]: span identity %+v, tree identity %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompactionPreservesRefusesForeignLayouts: a compacted tree whose
// runs do not line up with the source's spans is refused outright.
func TestCompactionPreservesRefusesForeignLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 6; i++ {
		fx.appendLoose(rng)
	}
	compacted, _ := fx.tree.Compact()
	if !fx.tree.CompactionPreserves(compacted) {
		t.Fatal("a correct compaction was refused")
	}
	if !fx.tree.CompactionPreserves(fx.tree) {
		t.Fatal("a tree does not preserve itself")
	}
	shorter, _ := fx.tree.Remove(fx.seqs[5])
	for name, other := range map[string]*Tree{
		"missing tail":   shorter,
		"empty":          NewTree(nil),
		"other contents": NewTree(nil).Append(SealSegment(randShard(rng, "x"), "x"), fx.seqs[0]),
	} {
		if fx.tree.CompactionPreserves(other) {
			t.Fatalf("%s: foreign layout adopted", name)
		}
	}
	// A merged run with the right content whose bounds or leaf count do
	// not match the span it replaces.
	a, b := fx.tree.runs[0], fx.tree.runs[1]
	seg := MergeSegments(a.seg, b.seg)
	for name, n := range map[string]*treeNode{
		"late lo":     {seg: seg, lo: a.lo + 1, hi: b.hi, leaves: 2, left: a, right: b},
		"short hi":    {seg: seg, lo: a.lo, hi: b.hi - 1, leaves: 2, left: a, right: b},
		"leaf count":  {seg: seg, lo: a.lo, hi: b.hi, leaves: 3, left: a, right: b},
		"right shape": {seg: seg, lo: a.lo, hi: b.hi, leaves: 2, left: a, right: b},
	} {
		got := fx.tree.CompactionPreserves(&Tree{runs: append([]*treeNode{n}, fx.tree.runs[2:]...)})
		if want := name == "right shape"; got != want {
			t.Fatalf("%s: adopted = %v, want %v", name, got, want)
		}
	}
}

// slidingWindow is a 1024-document window of wideShard documents,
// pushed in arrival order, with a pool of later documents to slide in.
type slidingWindow struct {
	tree *Tree
	segs []*Segment // by arrival sequence
	lo   uint64     // oldest live sequence
	next uint64     // next sequence to arrive
}

func newSlidingWindow(window, extra int) *slidingWindow {
	rng := rand.New(rand.NewSource(1))
	w := &slidingWindow{tree: NewTree(nil)}
	for i := 0; i < window+extra; i++ {
		doc := fmt.Sprintf("doc%05d", i)
		w.segs = append(w.segs, SealSegment(wideShard(rng, doc), doc))
	}
	for ; w.next < uint64(window); w.next++ {
		w.tree = w.tree.Push(w.segs[w.next], w.next)
	}
	return w
}

// slide appends k documents (loose, as a deferred-compaction session
// does) and evicts the k oldest, returning the leaves it changed.
func (w *slidingWindow) slide(k int) []*Segment {
	var changed []*Segment
	for i := 0; i < k; i++ {
		w.tree = w.tree.Append(w.segs[w.next], w.next)
		changed = append(changed, w.segs[w.next])
		w.next++
		w.tree, _ = w.tree.Remove(w.lo)
		changed = append(changed, w.segs[w.lo])
		w.lo++
	}
	return changed
}

// BenchmarkDiffTrees: the ingest path's delta, diffed by lookups of the
// changed leaves' keys and entity IDs. "slide" is one 4-document slide
// of a compacted 1024-leaf window; "loose" is a 64-document batch
// appended as loose leaf runs (and 64 evicted), the shape a batched
// /ingest publishes before it compacts.
func BenchmarkDiffTrees(b *testing.B) {
	const window = 1024
	for _, c := range []struct {
		name string
		step int
	}{{"slide", 4}, {"loose", 64}} {
		b.Run(c.name, func(b *testing.B) {
			w := newSlidingWindow(window, c.step*b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.tree, _ = w.tree.Compact()
				old := w.tree
				changed := w.slide(c.step)
				b.StartTimer()
				diffSink, _ = DiffTrees(old, w.tree, changed)
			}
		})
	}
}

var diffSink Delta

// BenchmarkCompactVerify: the maintainer's adoption check after four
// loose documents slid into a 1024-leaf window — the span check over
// the runs the compaction replaced, and the whole-tree identity it
// replaces for comparison. Each iteration checks a fresh compaction, so
// its merged runs are hashed for the first time, as a new job's are.
func BenchmarkCompactVerify(b *testing.B) {
	w := newSlidingWindow(1024, 4)
	w.slide(4)
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			compacted, _ := w.tree.Compact()
			b.StartTimer()
			if !w.tree.CompactionPreserves(compacted) {
				b.Fatal("correct compaction refused")
			}
		}
	})
	b.Run("whole-tree", func(b *testing.B) {
		want, _, _ := w.tree.Identity()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			compacted, _ := w.tree.Compact()
			b.StartTimer()
			if got, _, _ := compacted.Identity(); got != want {
				b.Fatal("correct compaction refused")
			}
		}
	})
}
