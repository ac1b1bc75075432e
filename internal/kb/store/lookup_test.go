package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// lookupFixtureFact builds the shared fact shape the lookup tests vary:
// one subject/relation/object key under different confidence, provenance
// and pattern.
func lookupFixtureFact(conf float64, doc, pattern string) Fact {
	return Fact{
		Subject:    Value{EntityID: "E1"},
		Relation:   "plays_for",
		Pattern:    pattern,
		Objects:    []Value{{EntityID: "T1"}},
		Confidence: conf,
		Source:     Provenance{DocID: doc, SentIndex: 1},
	}
}

// twoRunTree builds a tree holding a and b as two separate runs (a
// plain double Push compacts them into one), oldest first.
func twoRunTree(a, b *KB) *Tree {
	filler := New()
	filler.AddFact(Fact{Subject: Value{EntityID: "E9"}, Relation: "filler", Confidence: 0.1})
	tr := NewTree(nil).Push(SealSegment(a, "a"), 0).Push(SealSegment(filler, "f"), 1)
	tr, _ = tr.Remove(1)
	return tr.Push(SealSegment(b, "b"), 2)
}

// TestTreeLookupEmptyTree: lookups on a fresh tree find nothing and
// return clean zero values.
func TestTreeLookupEmptyTree(t *testing.T) {
	tr := NewTree(nil)
	if f, ok := tr.Lookup("e:E1|plays_for|e:T1"); ok || f != nil {
		t.Fatalf("Lookup on empty tree = %v, %t; want nil, false", f, ok)
	}
	if e, ok := tr.LookupEntity("E1"); ok || e.ID != "" {
		t.Fatalf("LookupEntity on empty tree = %+v, %t; want zero, false", e, ok)
	}
}

// TestTreeLookupMultiRunUpgrade: when one dedup key appears in several
// runs, Lookup must return the same winner Materialize would keep —
// higher confidence wins regardless of run order, and a confidence tie
// falls to the smaller provenance.
func TestTreeLookupMultiRunUpgrade(t *testing.T) {
	low := New()
	low.AddFact(lookupFixtureFact(0.4, "docA", "p-low"))
	high := New()
	high.AddFact(lookupFixtureFact(0.9, "docB", "p-high"))
	tieA := New()
	tieA.AddFact(lookupFixtureFact(0.7, "docA", "p-tieA"))
	tieB := New()
	tieB.AddFact(lookupFixtureFact(0.7, "docB", "p-tieB"))

	key := string(appendFactKey(nil, &Fact{
		Subject: Value{EntityID: "E1"}, Relation: "plays_for",
		Objects: []Value{{EntityID: "T1"}},
	}))
	for _, tc := range []struct {
		name     string
		tr       *Tree
		wantConf float64
		wantDoc  string
	}{
		{"upgrade in newer run", twoRunTree(low, high), 0.9, "docB"},
		{"upgrade in older run", twoRunTree(high, low), 0.9, "docB"},
		{"confidence tie -> smaller provenance", twoRunTree(tieB, tieA), 0.7, "docA"},
	} {
		got, ok := tc.tr.Lookup(key)
		if !ok {
			t.Fatalf("%s: Lookup(%q) found nothing", tc.name, key)
		}
		if got.Confidence != tc.wantConf || got.Source.DocID != tc.wantDoc {
			t.Fatalf("%s: winner conf %.1f from %s, want %.1f from %s",
				tc.name, got.Confidence, got.Source.DocID, tc.wantConf, tc.wantDoc)
		}
		kb := tc.tr.Materialize()
		want := &kb.facts[kb.byKey[key]]
		if got.Confidence != want.Confidence || got.Source != want.Source || got.Pattern != want.Pattern {
			t.Fatalf("%s: Lookup winner %+v disagrees with Materialize %+v", tc.name, got, want)
		}
	}
}

// TestTreeLookupEntityMergesRuns: entity records union their mentions
// and types across runs in first-seen order, exactly as the
// materialized KB holds them.
func TestTreeLookupEntityMergesRuns(t *testing.T) {
	a := New()
	a.AddEntity(EntityRecord{ID: "E1", Name: "Ann", Mentions: []string{"Ann"}, Types: []string{"PER"}})
	b := New()
	b.AddEntity(EntityRecord{ID: "E1", Name: "Ann", Mentions: []string{"Ann", "A. Smith"}, Types: []string{"PER", "ATHLETE"}})

	tr := twoRunTree(a, b)
	got, ok := tr.LookupEntity("E1")
	if !ok {
		t.Fatal("LookupEntity(E1) found nothing")
	}
	want := tr.Materialize().Entity("E1")
	if want == nil {
		t.Fatal("materialized KB lost E1")
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.Mentions, want.Mentions) || !reflect.DeepEqual(got.Types, want.Types) {
		t.Fatalf("LookupEntity = %+v, materialized %+v", got, want)
	}
	if !reflect.DeepEqual(got.Mentions, []string{"Ann", "A. Smith"}) {
		t.Fatalf("merged mentions %v, want union in first-seen order", got.Mentions)
	}
	if _, ok := tr.LookupEntity("nobody"); ok {
		t.Fatal("LookupEntity found an entity that was never added")
	}
}

// TestTreeLookupAfterRemove: removing a document via run-splitting must
// make its keys unreachable while keys from surviving documents keep
// resolving.
func TestTreeLookupAfterRemove(t *testing.T) {
	mk := func(doc, subj string) *KB {
		kb := New()
		kb.AddEntity(EntityRecord{ID: subj, Name: subj, Mentions: []string{subj}})
		kb.AddFact(Fact{
			Subject: Value{EntityID: subj}, Relation: "from_doc",
			Objects: []Value{{Literal: doc}}, Confidence: 0.8,
			Source: Provenance{DocID: doc},
		})
		return kb
	}
	key := func(subj, doc string) string {
		return string(appendFactKey(nil, &Fact{
			Subject: Value{EntityID: subj}, Relation: "from_doc",
			Objects: []Value{{Literal: doc}},
		}))
	}

	// Three pushes compact into runs; removing the middle sequence
	// splits its run rather than dropping a whole leaf.
	tr := NewTree(nil).
		Push(SealSegment(mk("d0", "E0"), "d0"), 0).
		Push(SealSegment(mk("d1", "E1"), "d1"), 1).
		Push(SealSegment(mk("d2", "E2"), "d2"), 2)
	if _, ok := tr.Lookup(key("E1", "d1")); !ok {
		t.Fatal("d1's key missing before removal")
	}
	tr, ok := tr.Remove(1)
	if !ok {
		t.Fatal("Remove(1) found nothing")
	}
	if f, ok := tr.Lookup(key("E1", "d1")); ok {
		t.Fatalf("removed document's key still resolves: %+v", f)
	}
	if _, ok := tr.LookupEntity("E1"); ok {
		t.Fatal("removed document's entity still resolves")
	}
	for _, s := range []struct{ subj, doc string }{{"E0", "d0"}, {"E2", "d2"}} {
		if _, ok := tr.Lookup(key(s.subj, s.doc)); !ok {
			t.Fatalf("surviving key %s/%s lost by the split", s.subj, s.doc)
		}
	}
	if kb := tr.Materialize(); kb.Len() != 2 {
		t.Fatalf("materialized %d facts after removal, want 2", kb.Len())
	}
}

// TestTreeLookupEntityMatchesMaterialized: over randomized trees with
// evictions and loose runs, every entity ID the trees have held
// resolves through the per-run entity indices to exactly the record
// Materialize holds — or to nothing once its last document is gone — and
// an ID never added resolves to nothing. The same holds after every
// segment is demoted, so each index is rebuilt by a codec decode (leaves)
// or a re-merge (partial merges) as the lookup faults it back in.
func TestTreeLookupEntityMatchesMaterialized(t *testing.T) {
	check := func(tr *Tree, want *KB, ids map[string]bool, label string) {
		t.Helper()
		for id := range ids {
			got, ok := tr.LookupEntity(id)
			w := want.Entity(id)
			if ok != (w != nil) {
				t.Fatalf("%s: LookupEntity(%s) found=%v, materialized has it: %v", label, id, ok, w != nil)
			}
			if ok && !reflect.DeepEqual(got, *w) {
				t.Fatalf("%s: LookupEntity(%s) = %+v, materialized %+v", label, id, got, *w)
			}
		}
		if _, ok := tr.LookupEntity("E-never"); ok {
			t.Fatalf("%s: an ID never added resolved", label)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		ids := map[string]bool{}
		for step := 0; step < 80; step++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(fx.shards) < 2:
				doc := fmt.Sprintf("doc%03d", fx.next)
				kb := wideShard(rng, doc)
				for _, e := range kb.Entities() {
					ids[e.ID] = true
				}
				fx.pushShard(doc, kb)
			case r < 7:
				fx.appendLoose(rng)
				for _, e := range fx.shards[len(fx.shards)-1].Entities() {
					ids[e.ID] = true
				}
			default:
				fx.remove(rng.Intn(len(fx.shards)))
			}
		}
		check(fx.tree, fx.tree.Materialize(), ids, fmt.Sprintf("seed %d", seed))
	}

	for seed := int64(0); seed < 4; seed++ {
		tree, ref, blobs := buildDemotableTree(t, seed, 24)
		want := ref.Materialize()
		ids := map[string]bool{}
		for _, s := range ref.AllSegments() {
			for _, e := range s.Entities() {
				ids[e.ID] = true
			}
		}
		if demoteAll(tree) == 0 {
			t.Fatal("nothing demoted")
		}
		check(tree, want, ids, fmt.Sprintf("demoted seed %d", seed))
		if blobs.loads == 0 {
			t.Fatalf("demoted seed %d: no lookup faulted a leaf back through the codec", seed)
		}
	}
}
