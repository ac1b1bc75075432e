package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// collectTree drains a TreeCursor into key order, asserting ascending
// strictly-unique keys as it goes.
func collectTree(t *testing.T, c *TreeCursor, label string) (keys []string, facts []Fact) {
	t.Helper()
	prev := ""
	for {
		k, f, ok := c.Next()
		if !ok {
			return keys, facts
		}
		if len(keys) > 0 && k <= prev {
			t.Fatalf("%s: cursor keys not strictly ascending: %q after %q", label, k, prev)
		}
		if f.ID != -1 {
			t.Fatalf("%s: cursor fact carries KB-local ID %d; want -1", label, f.ID)
		}
		keys = append(keys, k)
		facts = append(facts, f)
		prev = k
	}
}

// materializedByKey indexes a materialized KB's facts by dedup key.
func materializedByKey(kb *KB) map[string]*Fact {
	out := make(map[string]*Fact, len(kb.facts))
	for k, i := range kb.byKey {
		out[k] = &kb.facts[i]
	}
	return out
}

// TestTreeScanPrefixMatchesMaterialized: over randomized push/remove
// schedules, scanning any prefix yields exactly the materialized KB's
// facts in that key range — same winning Confidence/Source/Pattern and
// the same first-occurrence spelling — in sorted key order.
func TestTreeScanPrefixMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for step := 0; step < 30; step++ {
			if len(fx.shards) == 0 || rng.Intn(3) > 0 {
				fx.push(rng)
			} else {
				fx.remove(rng.Intn(len(fx.shards)))
			}
			kb := fx.tree.Materialize()
			byKey := materializedByKey(kb)
			// The empty prefix (full scan) plus one subject-bound prefix per
			// distinct subject exercises both the k-way merge and the
			// binary-searched ranges.
			prefixes := []string{""}
			subjects := map[string]bool{}
			for i := range kb.facts {
				pk := ValueKey(kb.facts[i].Subject) + "|"
				if !subjects[pk] {
					subjects[pk] = true
					prefixes = append(prefixes, pk)
				}
			}
			for _, prefix := range prefixes {
				label := fmt.Sprintf("seed %d step %d prefix %q", seed, step, prefix)
				keys, facts := collectTree(t, fx.tree.ScanPrefix(prefix), label)
				var want []string
				for k := range byKey {
					if strings.HasPrefix(k, prefix) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				if len(keys) != len(want) {
					t.Fatalf("%s: scanned %d keys, want %d", label, len(keys), len(want))
				}
				for i, k := range keys {
					if k != want[i] {
						t.Fatalf("%s: key %d = %q, want %q", label, i, k, want[i])
					}
					w := byKey[k]
					g := &facts[i]
					if g.Confidence != w.Confidence || g.Source != w.Source || g.Pattern != w.Pattern {
						t.Fatalf("%s: winner for %q = %+v, materialized %+v", label, k, g, w)
					}
					if g.Relation != w.Relation || g.Subject != w.Subject || g.String() != w.String() {
						t.Fatalf("%s: spelling for %q = %s, materialized %s", label, k, g.String(), w.String())
					}
				}
			}
		}
	}
}

// TestTreeScanSpellingFromOldestRun: when the same dedup key carries
// different surface spellings in different runs (case differences
// collapse in the key), the cursor must keep the oldest occurrence's
// spelling while the winner's confidence/provenance travel — exactly
// what Materialize produces.
func TestTreeScanSpellingFromOldestRun(t *testing.T) {
	old := New()
	old.AddFact(Fact{
		Subject: Value{EntityID: "E1"}, Relation: "Married_To", Pattern: "p-old",
		Objects: []Value{{Literal: "Someone"}}, Confidence: 0.3,
		Source: Provenance{DocID: "docA", SentIndex: 0},
	})
	new := New()
	new.AddFact(Fact{
		Subject: Value{EntityID: "E1"}, Relation: "married_to", Pattern: "p-new",
		Objects: []Value{{Literal: "someone"}}, Confidence: 0.9,
		Source: Provenance{DocID: "docB", SentIndex: 1},
	})
	tree := NewTree(nil).Push(SealSegment(old, "a"), 0).Push(SealSegment(new, "b"), 1)
	// Push compacted the two leaves into one run; rebuild as two runs via a
	// third push and a removal to exercise the cross-run fold.
	filler := New()
	filler.AddFact(Fact{Subject: Value{EntityID: "E9"}, Relation: "r", Confidence: 0.1})
	twoRuns := NewTree(nil).Push(SealSegment(old, "a"), 0).Push(SealSegment(filler, "f"), 1)
	twoRuns, _ = twoRuns.Remove(1)
	twoRuns = twoRuns.Push(SealSegment(new, "b"), 2)

	for _, tc := range []struct {
		name string
		tr   *Tree
	}{{"compacted", tree}, {"two runs", twoRuns}} {
		kb := tc.tr.Materialize()
		if kb.Len() != 1 {
			t.Fatalf("%s: materialized %d facts, want 1", tc.name, kb.Len())
		}
		want := kb.Facts()[0]
		_, got, ok := tc.tr.ScanPrefix("").Next()
		if !ok {
			t.Fatalf("%s: cursor empty", tc.name)
		}
		if got.Relation != want.Relation || got.String() != want.String() {
			t.Fatalf("%s: spelling %s, want %s", tc.name, got.String(), want.String())
		}
		if got.Confidence != want.Confidence || got.Source != want.Source || got.Pattern != want.Pattern {
			t.Fatalf("%s: winner %+v, want %+v", tc.name, got, want)
		}
		if got.Relation != "Married_To" || got.Confidence != 0.9 || got.Pattern != "p-new" {
			t.Fatalf("%s: composition wrong: %+v", tc.name, got)
		}
	}
}

// TestSegmentScanPrefix: segment-level cursors walk the binary-searched
// range in key order and Remaining reports the range width.
func TestSegmentScanPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kb := randShard(rng, "d1")
	seg := SealSegment(kb, "d1")
	c := seg.ScanPrefix("")
	if c.Remaining() != seg.Len() {
		t.Fatalf("Remaining = %d, want %d", c.Remaining(), seg.Len())
	}
	prev, n := "", 0
	for {
		k, f, ok := c.Next()
		if !ok {
			break
		}
		if n > 0 && k <= prev {
			t.Fatalf("segment scan out of order: %q after %q", k, prev)
		}
		if got, ok := seg.Lookup(k); !ok || got != f {
			t.Fatalf("cursor fact for %q disagrees with Lookup", k)
		}
		prev, n = k, n+1
	}
	if n != seg.Len() {
		t.Fatalf("scanned %d facts, want %d", n, seg.Len())
	}
	if c, want := seg.ScanPrefix("no-such-prefix\x7f"), 0; c.Remaining() != want {
		t.Fatalf("absent prefix Remaining = %d, want 0", c.Remaining())
	}
}

// TestTreeEstimatePrefix: the estimate is exact for a single run and an
// upper bound (duplicates collapse) for multi-run trees; absent prefixes
// estimate to zero.
func TestTreeEstimatePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 7; i++ {
		fx.push(rng)
	}
	kb := fx.tree.Materialize()
	byKey := materializedByKey(kb)
	prefixes := map[string]int{"": len(byKey)}
	for k := range byKey {
		cut := strings.Index(k, "|")
		prefixes[k[:cut+1]] = 0
	}
	for p := range prefixes {
		if p == "" {
			continue
		}
		n := 0
		for k := range byKey {
			if strings.HasPrefix(k, p) {
				n++
			}
		}
		prefixes[p] = n
	}
	for p, distinct := range prefixes {
		est := fx.tree.EstimatePrefix(p)
		if est < distinct {
			t.Fatalf("EstimatePrefix(%q) = %d underestimates %d distinct keys", p, est, distinct)
		}
	}
	if est := fx.tree.EstimatePrefix("zz-no-such\x7f"); est != 0 {
		t.Fatalf("absent prefix estimated %d", est)
	}
}

// posEntriesOf derives the reference POS index of a materialized KB:
// one entry per (fact, distinct object value), keyed
// relation|objKey|dedupKey, plus a single zero-object entry for
// object-less facts.
func posEntriesOf(kb *KB) map[string]*Fact {
	out := map[string]*Fact{}
	for k, i := range kb.byKey {
		f := &kb.facts[i]
		rel := RelKey(f.Relation)
		if len(f.Objects) == 0 {
			out[rel+"||"+k] = f
			continue
		}
		for _, o := range f.Objects {
			out[rel+"|"+ValueKey(o)+"|"+k] = f
		}
	}
	return out
}

// TestTreeScanPOSPrefixMatchesEAVT: on randomized multi-run trees, the
// POS index yields exactly the entries the materialized KB implies —
// per relation prefix and per (relation, object) prefix — with winner
// fields identical to the EAVT scan's cross-run fold.
func TestTreeScanPOSPrefixMatchesEAVT(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for step := 0; step < 25; step++ {
			if len(fx.shards) == 0 || rng.Intn(3) > 0 {
				fx.push(rng)
			} else {
				fx.remove(rng.Intn(len(fx.shards)))
			}
			kb := fx.tree.Materialize()
			ref := posEntriesOf(kb)
			prefixes := map[string]bool{"": true}
			for i := range kb.facts {
				f := &kb.facts[i]
				prefixes[POSPrefix(RelKey(f.Relation), "")] = true
				for _, o := range f.Objects {
					prefixes[POSPrefix(RelKey(f.Relation), ValueKey(o))] = true
				}
			}
			for prefix := range prefixes {
				label := fmt.Sprintf("seed %d step %d pos prefix %q", seed, step, prefix)
				keys, facts := collectTree(t, fx.tree.ScanPOSPrefix(prefix), label)
				var want []string
				for k := range ref {
					if strings.HasPrefix(k, prefix) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				if len(keys) != len(want) {
					t.Fatalf("%s: scanned %d entries, want %d", label, len(keys), len(want))
				}
				for i, k := range keys {
					if k != want[i] {
						t.Fatalf("%s: entry %d = %q, want %q", label, i, k, want[i])
					}
					w, g := ref[k], &facts[i]
					if g.Confidence != w.Confidence || g.Source != w.Source || g.Pattern != w.Pattern {
						t.Fatalf("%s: winner for %q = %+v, materialized %+v", label, k, g, w)
					}
					if g.Relation != w.Relation || g.String() != w.String() {
						t.Fatalf("%s: spelling for %q = %s, materialized %s", label, k, g.String(), w.String())
					}
				}
				if est := fx.tree.EstimatePOSPrefix(prefix); est < len(want) {
					t.Fatalf("%s: EstimatePOSPrefix = %d underestimates %d entries", label, est, len(want))
				}
			}
		}
	}
}

// TestScanPrefixIndexEdgeCases: prefixEnd's carry/overflow corners and
// the scan behavior they induce — all-0xff prefixes (no upper bound: the
// range runs to the end of the index), the empty prefix over an empty
// tree, and a prefix exactly equal to a full key.
func TestScanPrefixIndexEdgeCases(t *testing.T) {
	for _, tc := range []struct{ prefix, want string }{
		{"", ""},
		{"a", "b"},
		{"a\xff", "b"},
		{"\xff", ""},
		{"\xff\xff\xff", ""},
		{"ab\xff\xff", "ac"},
	} {
		if got := prefixEnd(tc.prefix); got != tc.want {
			t.Errorf("prefixEnd(%q) = %q, want %q", tc.prefix, got, tc.want)
		}
	}

	empty := NewTree(nil)
	if _, _, ok := empty.ScanPrefix("").Next(); ok {
		t.Fatal("empty tree: ScanPrefix(\"\") yielded an entry")
	}
	if _, _, ok := empty.ScanPOSPrefix("").Next(); ok {
		t.Fatal("empty tree: ScanPOSPrefix(\"\") yielded an entry")
	}
	if est := empty.EstimatePOSPrefix(""); est != 0 {
		t.Fatalf("empty tree: EstimatePOSPrefix = %d, want 0", est)
	}

	rng := rand.New(rand.NewSource(31))
	fx := &treeFixture{tree: NewTree(nil)}
	for i := 0; i < 5; i++ {
		fx.push(rng)
	}
	kb := fx.tree.Materialize()
	byKey := materializedByKey(kb)

	// An all-0xff prefix sorts above every real key: empty range, no panic.
	keys, _ := collectTree(t, fx.tree.ScanPrefix("\xff\xff"), "all-0xff")
	if len(keys) != 0 {
		t.Fatalf("all-0xff prefix scanned %d keys, want 0", len(keys))
	}

	// A prefix equal to a full dedup key yields at least that key, first.
	for k := range byKey {
		keys, _ := collectTree(t, fx.tree.ScanPrefix(k), "full-key "+k)
		if len(keys) == 0 || keys[0] != k {
			t.Fatalf("ScanPrefix(full key %q) = %v, want leading exact match", k, keys)
		}
		break
	}

	// Same corners on the POS index.
	if keys, _ := collectTree(t, fx.tree.ScanPOSPrefix("\xff\xff"), "pos all-0xff"); len(keys) != 0 {
		t.Fatalf("POS all-0xff prefix scanned %d entries, want 0", len(keys))
	}
	for k := range posEntriesOf(kb) {
		keys, _ := collectTree(t, fx.tree.ScanPOSPrefix(k), "pos full-key "+k)
		if len(keys) == 0 || keys[0] != k {
			t.Fatalf("ScanPOSPrefix(full key %q) = %v, want leading exact match", k, keys)
		}
		break
	}
}
