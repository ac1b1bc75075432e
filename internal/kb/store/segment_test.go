package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// randShard generates a deterministic pseudo-random per-document shard:
// a handful of entities and facts whose keys deliberately collide across
// shards (small subject/relation/object alphabets) so merges exercise
// dedup, confidence upgrades and provenance tie-breaks.
func randShard(rng *rand.Rand, doc string) *KB {
	kb := New()
	nEnts := 1 + rng.Intn(3)
	for i := 0; i < nEnts; i++ {
		id := fmt.Sprintf("E%d", rng.Intn(6))
		kb.AddEntity(EntityRecord{
			ID:       id,
			Name:     "entity " + id,
			Mentions: []string{id, fmt.Sprintf("m%d-%s", rng.Intn(4), doc)},
			Types:    []string{fmt.Sprintf("T%d", rng.Intn(3))},
			Emerging: rng.Intn(2) == 0,
		})
	}
	nFacts := 2 + rng.Intn(6)
	for i := 0; i < nFacts; i++ {
		f := Fact{
			Subject:    Value{EntityID: fmt.Sprintf("E%d", rng.Intn(6))},
			Relation:   fmt.Sprintf("rel%d", rng.Intn(4)),
			Pattern:    fmt.Sprintf("pat%d-%s", i, doc),
			Confidence: float64(1+rng.Intn(9)) / 10,
			Source:     Provenance{DocID: doc, SentIndex: rng.Intn(5)},
		}
		if rng.Intn(2) == 0 {
			f.Objects = []Value{{EntityID: fmt.Sprintf("E%d", rng.Intn(6))}}
		} else {
			f.Objects = []Value{{Literal: fmt.Sprintf("lit%d", rng.Intn(5))}}
		}
		if rng.Intn(4) == 0 {
			f.Objects = append(f.Objects, Value{Literal: "extra", IsTime: true})
		}
		kb.AddFact(f)
	}
	return kb
}

// flatMerge is the reference semantics: KB.Merge in document order.
func flatMerge(shards []*KB) *KB {
	kb := New()
	for _, s := range shards {
		kb.Merge(s)
	}
	return kb
}

// sameKB asserts two KBs are identical in layout, not just fingerprint:
// same fact slice order, IDs, and field values.
func sameKB(t *testing.T, got, want *KB, label string) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprints differ\n--- got ---\n%s\n--- want ---\n%s",
			label, got.Fingerprint(), want.Fingerprint())
	}
	gf, wf := got.Facts(), want.Facts()
	if len(gf) != len(wf) {
		t.Fatalf("%s: %d facts, want %d", label, len(gf), len(wf))
	}
	for i := range gf {
		if gf[i].ID != wf[i].ID || gf[i].String() != wf[i].String() ||
			gf[i].Confidence != wf[i].Confidence || gf[i].Source != wf[i].Source ||
			gf[i].Pattern != wf[i].Pattern {
			t.Fatalf("%s: fact %d differs: %+v vs %+v", label, i, gf[i], wf[i])
		}
	}
	ge, we := got.Entities(), want.Entities()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d entities, want %d", label, len(ge), len(we))
	}
	for i := range ge {
		if ge[i].ID != we[i].ID {
			t.Fatalf("%s: entity order differs at %d: %s vs %s", label, i, ge[i].ID, we[i].ID)
		}
	}
}

// TestSealSegmentRoundTrip: sealing a shard and materializing it back
// reproduces the shard exactly, and the seal is a deep copy.
func TestSealSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kb := randShard(rng, "d1")
	seg := SealSegment(kb, "d1")
	if seg.Len() != kb.Len() || seg.Docs() != 1 {
		t.Fatalf("seg.Len=%d docs=%d, want %d, 1", seg.Len(), seg.Docs(), kb.Len())
	}
	back := MaterializeRuns([]*Segment{seg})
	sameKB(t, back, kb, "seal round-trip")

	// Mutating the source afterwards must not leak into the segment.
	before := MaterializeRuns([]*Segment{seg}).Fingerprint()
	kb.AddFact(fact("d9", 0, "E0", "rel-novel", 0.99, Value{Literal: "x"}))
	kb.AddEntity(EntityRecord{ID: "E0", Mentions: []string{"mutated"}})
	if MaterializeRuns([]*Segment{seg}).Fingerprint() != before {
		t.Fatal("segment aliased its source shard")
	}
}

// TestSegmentLookup: Lookup finds every sealed fact by its key and
// nothing else.
func TestSegmentLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kb := randShard(rng, "d1")
	seg := SealSegment(kb, "d1")
	for i, k := range seg.Keys() {
		f, ok := seg.Lookup(k)
		if !ok || f.Pattern != seg.payload().facts[i].Pattern {
			t.Fatalf("Lookup(%q) = %+v, %t", k, f, ok)
		}
	}
	if _, ok := seg.Lookup("no-such-key"); ok {
		t.Fatal("Lookup matched a missing key")
	}
}

// TestMergeSegmentsMatchesFlatMergeExactly: for randomized shard
// sequences and every adjacency-preserving merge-tree shape (left fold,
// right fold, balanced), materializing the merged segment reproduces the
// flat document-order KB.Merge byte for byte — same fact order, IDs,
// winners and entity records. This layout identity is what lets session
// versions built through the tree fingerprint-match one-shot builds.
func TestMergeSegmentsMatchesFlatMergeExactly(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		shards := make([]*KB, n)
		segs := make([]*Segment, n)
		for i := range shards {
			shards[i] = randShard(rng, fmt.Sprintf("doc%02d", i))
			segs[i] = SealSegment(shards[i], fmt.Sprintf("doc%02d", i))
		}
		want := flatMerge(shards)

		// Left fold: ((s1+s2)+s3)+...
		left := segs[0]
		for _, s := range segs[1:] {
			left = MergeSegments(left, s)
		}
		sameKB(t, MaterializeRuns([]*Segment{left}), want, fmt.Sprintf("seed %d left fold", seed))

		// Right fold: s1+(s2+(s3+...)).
		right := segs[n-1]
		for i := n - 2; i >= 0; i-- {
			right = MergeSegments(segs[i], right)
		}
		sameKB(t, MaterializeRuns([]*Segment{right}), want, fmt.Sprintf("seed %d right fold", seed))

		// Balanced pairwise reduction.
		level := append([]*Segment(nil), segs...)
		for len(level) > 1 {
			var next []*Segment
			for i := 0; i < len(level); i += 2 {
				if i+1 < len(level) {
					next = append(next, MergeSegments(level[i], level[i+1]))
				} else {
					next = append(next, level[i])
				}
			}
			level = next
		}
		sameKB(t, MaterializeRuns([]*Segment{level[0]}), want, fmt.Sprintf("seed %d balanced", seed))

		// Partial runs materialized together (no final merge) must agree too.
		mid := n / 2
		a, b := segs[0], segs[mid]
		for _, s := range segs[1:mid] {
			a = MergeSegments(a, s)
		}
		for _, s := range segs[mid+1:] {
			b = MergeSegments(b, s)
		}
		sameKB(t, MaterializeRuns([]*Segment{a, b}), want, fmt.Sprintf("seed %d two runs", seed))
	}
}
