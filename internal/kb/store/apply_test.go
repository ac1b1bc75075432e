package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qkbfly/internal/kb/entityrepo"
)

// applyReference is the plain Delta.Apply: every surviving base record
// re-enters a fresh KB through AddEntity and AddFact, re-deriving keys,
// postings and type closures. Delta.Apply must build the same KB.
func applyReference(d *Delta, base *KB) *KB {
	removed := make(map[string]struct{}, len(d.Removed))
	for i := range d.Removed {
		removed[FactKey(&d.Removed[i])] = struct{}{}
	}
	upgraded := make(map[string]*Fact, len(d.Upgraded))
	for i := range d.Upgraded {
		upgraded[FactKey(&d.Upgraded[i])] = &d.Upgraded[i]
	}
	keyOf := make([]string, len(base.facts))
	for k, i := range base.byKey {
		keyOf[i] = k
	}
	out := New()
	removedEnts := make(map[string]bool)
	for i := range d.RemovedEntities {
		removedEnts[d.RemovedEntities[i].ID] = true
	}
	changedEnts := make(map[string]*EntityRecord)
	for i := range d.ChangedEntities {
		changedEnts[d.ChangedEntities[i].ID] = &d.ChangedEntities[i]
	}
	for _, id := range base.order {
		if removedEnts[id] {
			continue
		}
		if ce, ok := changedEnts[id]; ok {
			out.AddEntity(*ce)
			continue
		}
		out.AddEntity(*base.entities[id])
	}
	for i := range d.AddedEntities {
		out.AddEntity(d.AddedEntities[i])
	}
	for i := range base.facts {
		if _, gone := removed[keyOf[i]]; gone {
			continue
		}
		f := base.facts[i]
		if uf, ok := upgraded[keyOf[i]]; ok {
			f = *uf
		}
		f.Objects = append([]Value(nil), f.Objects...)
		out.AddFact(f)
	}
	for i := range d.Added {
		f := d.Added[i]
		f.Objects = append([]Value(nil), f.Objects...)
		out.AddFact(f)
	}
	return out
}

// hierarchyTypes mixes types with supertypes (whose closures grow as
// records merge) with flat ones.
var hierarchyTypes = []string{
	entityrepo.TypeFootballer, entityrepo.TypeAthlete, entityrepo.TypePerson,
	entityrepo.TypeBand, entityrepo.TypeCity, "T0", "T1",
}

// typedShard is randShard with entity types drawn from hierarchyTypes.
func typedShard(rng *rand.Rand, doc string) *KB {
	src := randShard(rng, doc)
	kb := New()
	for _, e := range src.Entities() {
		rec := *e
		rec.Types = []string{hierarchyTypes[rng.Intn(len(hierarchyTypes))]}
		kb.AddEntity(rec)
	}
	for _, f := range src.Facts() {
		kb.AddFact(f)
	}
	return kb
}

// sameLayout asserts two KBs are equal field by field: facts, entity
// records and their order, and every index.
func sameLayout(t *testing.T, got, want *KB, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.facts, want.facts) {
		t.Fatalf("%s: facts differ\n got: %v\nwant: %v", label, got.facts, want.facts)
	}
	if !reflect.DeepEqual(got.order, want.order) {
		t.Fatalf("%s: entity order %v, want %v", label, got.order, want.order)
	}
	for _, id := range want.order {
		if !reflect.DeepEqual(got.entities[id], want.entities[id]) {
			t.Fatalf("%s: entity %s = %+v, want %+v", label, id, got.entities[id], want.entities[id])
		}
	}
	for name, pair := range map[string][2]any{
		"byKey":     {got.byKey, want.byKey},
		"bySubject": {got.bySubject, want.bySubject},
		"byObject":  {got.byObject, want.byObject},
		"byRel":     {got.byRel, want.byRel},
		"entities":  {len(got.entities), len(want.entities)},
		"nextID":    {got.nextID, want.nextID},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s = %v, want %v", label, name, pair[0], pair[1])
		}
	}
}

// TestDeltaApplyMatchesReference: over randomized window pairs, Apply
// builds exactly the KB the AddFact/AddEntity rebuild builds, and
// continuing to write into the result leaves base untouched.
func TestDeltaApplyMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		n := 4 + rng.Intn(10)
		shards := make([]*KB, n)
		for i := range shards {
			shards[i] = typedShard(rng, fmt.Sprintf("doc%02d", i))
		}
		lo1, hi1 := rng.Intn(n/2), n/2+rng.Intn(n/2)
		lo2, hi2 := rng.Intn(n/2), n/2+rng.Intn(n/2)
		a := flatMerge(shards[lo1 : hi1+1])
		b := flatMerge(shards[lo2 : hi2+1])
		d := Diff(a, b)
		label := fmt.Sprintf("seed %d", seed)
		got := d.Apply(a)
		sameLayout(t, got, applyReference(&d, a), label)
		if got.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: Apply does not reconstruct the new version", label)
		}

		// Records shared with base are capped: extending them on one
		// result reallocates, so neither base nor a second result built
		// from the same base sees the write.
		before := a.Fingerprint()
		other := d.Apply(a)
		for _, id := range got.order {
			got.AddEntity(EntityRecord{ID: id, Mentions: []string{"late mention"}, Types: []string{entityrepo.TypeFilm}})
			other.AddEntity(EntityRecord{ID: id, Mentions: []string{"other mention"}, Types: []string{entityrepo.TypeSong}})
		}
		if a.Fingerprint() != before {
			t.Fatalf("%s: writing into Apply's result changed base", label)
		}
		for _, id := range got.order {
			g, o := got.Entity(id), other.Entity(id)
			if !contains(g.Mentions, "late mention") || contains(g.Mentions, "other mention") ||
				!contains(o.Mentions, "other mention") || contains(o.Mentions, "late mention") ||
				contains(g.Types, entityrepo.TypeSong) || contains(o.Types, entityrepo.TypeFilm) {
				t.Fatalf("%s: two results of one base share entity storage: %+v / %+v", label, *g, *o)
			}
		}
	}
}

// BenchmarkDeltaApply: one sliding-window step (4 documents in, 4 out)
// applied to a 1024-document window of about 10^4 facts — the follower's
// per-version cost.
func BenchmarkDeltaApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const window, step = 1024, 4
	shards := make([]*KB, window+step)
	for i := range shards {
		shards[i] = wideShard(rng, fmt.Sprintf("doc%04d", i))
	}
	base := flatMerge(shards[:window])
	next := flatMerge(shards[step:])
	d := Diff(base, next)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applySink = d.Apply(base)
	}
}

var applySink *KB

// wideShard is a per-document shard drawn from a KB-sized alphabet
// (about 2k entities), so a 1024-document window holds facts and entity
// records in the thousands with modest cross-document overlap.
func wideShard(rng *rand.Rand, doc string) *KB {
	kb := New()
	ent := func() string { return fmt.Sprintf("E%04d", rng.Intn(2000)) }
	for i := 0; i < 3+rng.Intn(4); i++ {
		id := ent()
		kb.AddEntity(EntityRecord{
			ID:       id,
			Name:     "entity " + id,
			Mentions: []string{id, "m-" + doc},
			Types:    []string{hierarchyTypes[rng.Intn(len(hierarchyTypes))]},
		})
	}
	for i := 0; i < 6+rng.Intn(8); i++ {
		kb.AddFact(Fact{
			Subject:    Value{EntityID: ent()},
			Relation:   fmt.Sprintf("rel%d", rng.Intn(40)),
			Objects:    []Value{{EntityID: ent()}},
			Pattern:    "pat",
			Confidence: float64(1+rng.Intn(9)) / 10,
			Source:     Provenance{DocID: doc, SentIndex: rng.Intn(5)},
		})
	}
	return kb
}
