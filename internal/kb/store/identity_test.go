package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// respelledShard is randShard with random upper-case spellings of
// relations and literal objects. Dedup keys fold case, so a key can be
// spelled differently by different documents, and a version that evicts
// a key's oldest occurrence respells it.
func respelledShard(rng *rand.Rand, doc string) *KB {
	src := randShard(rng, doc)
	kb := New()
	for _, e := range src.Entities() {
		kb.AddEntity(*e)
	}
	for _, f := range src.Facts() {
		if rng.Intn(2) == 0 {
			f.Relation = strings.ToUpper(f.Relation)
		}
		f.Objects = append([]Value(nil), f.Objects...)
		for i := range f.Objects {
			if !f.Objects[i].IsEntity() && rng.Intn(2) == 0 {
				f.Objects[i].Literal = strings.ToUpper(f.Objects[i].Literal)
			}
		}
		kb.AddFact(f)
	}
	return kb
}

// fingerprintReference is KB.Fingerprint as it was first written, with
// fmt verbs — the format bench tooling and stored digests depend on.
func fingerprintReference(kb *KB) string {
	value := func(v Value) string {
		if v.IsEntity() {
			return v.EntityID
		}
		return fmt.Sprintf("%q", v.Literal)
	}
	var lines []string
	for i := range kb.facts {
		f := &kb.facts[i]
		parts := []string{value(f.Subject), f.Relation}
		for _, o := range f.Objects {
			parts = append(parts, value(o))
		}
		lines = append(lines, fmt.Sprintf("f %s conf=%s src=%s:%d",
			"<"+strings.Join(parts, ", ")+">", strconv.FormatFloat(f.Confidence, 'g', -1, 64),
			f.Source.DocID, f.Source.SentIndex))
	}
	for _, id := range kb.order {
		e := kb.entities[id]
		mentions := append([]string(nil), e.Mentions...)
		sort.Strings(mentions)
		types := append([]string(nil), e.Types...)
		sort.Strings(types)
		lines = append(lines, fmt.Sprintf("e %s name=%q emerging=%t mentions=%v types=%v",
			e.ID, e.Name, e.Emerging, mentions, types))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestIdentityEmptyKBIsZero: the empty KB — flat, as a tree, or as its
// empty fingerprint text — has the zero identity.
func TestIdentityEmptyKBIsZero(t *testing.T) {
	var zero Identity
	if got := New().Identity(); got != zero {
		t.Errorf("New().Identity() = %s", got.Hex())
	}
	if got := TextIdentity(New().Fingerprint()); got != zero {
		t.Errorf("TextIdentity of the empty fingerprint = %s", got.Hex())
	}
	if id, facts, ents := NewTree(nil).Identity(); id != zero || facts != 0 || ents != 0 {
		t.Errorf("empty tree: identity %s, %d facts, %d entities", id.Hex(), facts, ents)
	}
	if got := zero.Hex(); got != strings.Repeat("0", 64) {
		t.Errorf("zero.Hex() = %q", got)
	}
}

// TestIdentityArithmetic: the sum is mod 2²⁵⁶ with carries across limbs,
// Sub inverts Add, and Hex/ParseIdentity round-trip.
func TestIdentityArithmetic(t *testing.T) {
	max := Identity{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	if got := max.Add(Identity{1}); got != (Identity{}) {
		t.Fatalf("max+1 = %s, want 0", got.Hex())
	}
	if got := (Identity{}).Sub(Identity{1}); got != max {
		t.Fatalf("0-1 = %s, want max", got.Hex())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := Identity{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		b := Identity{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		if a.Add(b).Sub(b) != a || a.Add(b) != b.Add(a) {
			t.Fatalf("Add/Sub not inverse or not commutative for %s, %s", a.Hex(), b.Hex())
		}
		if back, err := ParseIdentity(a.Hex()); err != nil || back != a {
			t.Fatalf("ParseIdentity(%s) = %s, %v", a.Hex(), back.Hex(), err)
		}
	}
	for _, bad := range []string{"", "00", strings.Repeat("g", 64), strings.Repeat("0", 65)} {
		if _, err := ParseIdentity(bad); err == nil {
			t.Errorf("ParseIdentity(%q) accepted", bad)
		}
	}
}

// TestIdentityFingerprintTextUnchanged: Fingerprint, now formatted by
// the same appenders the identity hashes, is byte-identical to the
// fmt-based original — including literals and names that need quoting,
// unicode, and empty mention/type lists — and the identity is the sum
// over its lines.
func TestIdentityFingerprintTextUnchanged(t *testing.T) {
	// Quoted fields may hold anything; mentions print unquoted, and the
	// pipeline's tokens never hold control characters.
	odd := []string{"plain", `say "hi"`, `back\slash`, "line\nbreak", "tab\there", "ünïcode ✓", "", "\x00nul"}
	unquoted := []string{"plain", "two words", `say "hi"`, "ünïcode ✓", ""}
	rng := rand.New(rand.NewSource(7))
	for seed := 0; seed < 20; seed++ {
		kb := respelledShard(rng, fmt.Sprintf("doc%02d", seed))
		for i := 0; i < 4; i++ {
			kb.AddEntity(EntityRecord{
				ID:       fmt.Sprintf("X%d", rng.Intn(3)),
				Name:     odd[rng.Intn(len(odd))],
				Mentions: []string{unquoted[rng.Intn(len(unquoted))], unquoted[rng.Intn(len(unquoted))]},
				Emerging: rng.Intn(2) == 0,
			})
			kb.AddFact(Fact{
				Subject:    Value{Literal: odd[rng.Intn(len(odd))]},
				Relation:   "says",
				Objects:    []Value{{Literal: odd[rng.Intn(len(odd))], IsTime: rng.Intn(2) == 0}},
				Confidence: rng.Float64(),
				Source:     Provenance{DocID: fmt.Sprintf("d:%d", i), SentIndex: rng.Intn(100) - 1},
			})
		}
		kb.AddEntity(EntityRecord{ID: "bare"})
		got, want := kb.Fingerprint(), fingerprintReference(kb)
		if got != want {
			t.Fatalf("seed %d: fingerprint text changed\n--- got ---\n%s\n--- want ---\n%s", seed, got, want)
		}
		if kb.Identity() != TextIdentity(got) {
			t.Fatalf("seed %d: Identity() differs from the identity of its fingerprint text", seed)
		}
	}
}

// TestIdentityDocIDNewlineSplitsLine: a document ID is the one unquoted
// free text in a fingerprint line, so a newline in it splits the line
// and the text's identity no longer matches the per-record one — which
// is why the daemon's /ingest refuses control characters in IDs. A
// newline inside a quoted literal is escaped and harmless.
func TestIdentityDocIDNewlineSplitsLine(t *testing.T) {
	kb := New()
	kb.AddFact(Fact{Subject: Value{EntityID: "E"}, Relation: "r", Objects: []Value{{Literal: "a\nb"}},
		Confidence: 0.5, Source: Provenance{DocID: "ok"}})
	if kb.Identity() != TextIdentity(kb.Fingerprint()) {
		t.Fatal("an escaped newline in a literal broke the text/record agreement")
	}
	kb.AddFact(Fact{Subject: Value{EntityID: "E"}, Relation: "r", Objects: []Value{{Literal: "c"}},
		Confidence: 0.5, Source: Provenance{DocID: "bad\nid"}})
	if kb.Identity() == TextIdentity(kb.Fingerprint()) {
		t.Fatal("a newline in a document ID did not split the line; the /ingest rule would be unnecessary")
	}
}

// TestIdentityTreeMatchesMaterialized: a tree's streamed identity and
// counts equal those of the KB it materializes to, over randomized
// push/remove schedules whose documents spell shared keys differently.
func TestIdentityTreeMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for step := 0; step < 30; step++ {
			if len(fx.shards) == 0 || rng.Intn(3) > 0 {
				doc := fmt.Sprintf("doc%03d", fx.next)
				fx.pushShard(doc, respelledShard(rng, doc))
			} else {
				fx.remove(rng.Intn(len(fx.shards)))
			}
			kb := fx.tree.Materialize()
			id, facts, ents := fx.tree.Identity()
			if id != kb.Identity() || facts != kb.Len() || ents != len(kb.Entities()) {
				t.Fatalf("seed %d step %d: tree (%s, %d facts, %d entities) vs materialized (%s, %d, %d)",
					seed, step, id.Hex(), facts, ents, kb.Identity().Hex(), kb.Len(), len(kb.Entities()))
			}
		}
	}
}

// TestIdentityDiffTreesFold: over randomized transitions (pushes and
// removals of respelled documents), DiffTrees' delta equals the flat
// Diff of the materialized versions, its identity change takes the old
// version's identity to the new one's, and the delta applies — with
// FoldIdentity over the result agreeing — so leader and follower both
// reach the new identity without recomputing it.
func TestIdentityDiffTreesFold(t *testing.T) {
	respelled := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		fx := &treeFixture{tree: NewTree(nil)}
		for i := 0; i < 4+rng.Intn(6); i++ {
			doc := fmt.Sprintf("doc%03d", fx.next)
			fx.pushShard(doc, respelledShard(rng, doc))
		}
		old := fx.tree
		oldKB := old.Materialize()
		var changed []*Segment
		for i := 0; i < rng.Intn(3); i++ {
			doc := fmt.Sprintf("doc%03d", fx.next)
			fx.pushShard(doc, respelledShard(rng, doc))
			changed = append(changed, fx.segs[len(fx.segs)-1])
		}
		for i := 0; i < 1+rng.Intn(2) && len(fx.shards) > 1; i++ {
			j := rng.Intn(len(fx.shards) - 1)
			changed = append(changed, fx.segs[j])
			fx.remove(j)
		}
		newKB := fx.tree.Materialize()
		label := fmt.Sprintf("seed %d", seed)

		d, did := DiffTrees(old, fx.tree, changed)
		assertDeltasEqual(t, d, Diff(oldKB, newKB), label)
		if got, want := oldKB.Identity().Add(did), newKB.Identity(); got != want {
			t.Fatalf("%s: folded identity %s, want %s", label, got.Hex(), want.Hex())
		}
		next := d.Apply(oldKB)
		if next.Fingerprint() != newKB.Fingerprint() {
			t.Fatalf("%s: delta does not reconstruct the new version\n--- got ---\n%s\n--- want ---\n%s",
				label, next.Fingerprint(), newKB.Fingerprint())
		}
		if got := d.FoldIdentity(oldKB, next, oldKB.Identity()); got != newKB.Identity() {
			t.Fatalf("%s: FoldIdentity %s, want %s", label, got.Hex(), newKB.Identity().Hex())
		}
		for _, u := range d.Upgraded {
			if of, ok := oldKB.factByKey(FactKey(&u)); ok && of.Relation != u.Relation {
				respelled++
			}
		}
	}
	if respelled == 0 {
		t.Error("no transition respelled a surviving key; the schedule does not cover respelling")
	}
}

// TestIdentityFoldAddedExistingKey: a delta may name one key more than
// once, or add a key its base already holds (Apply folds it in under the
// AddFact winner rule). FoldIdentity folds each key once, from the
// records actually in the two KBs, and so still lands on the result's
// identity; a record the delta corrupts is caught.
func TestIdentityFoldAddedExistingKey(t *testing.T) {
	base := New()
	base.AddEntity(EntityRecord{ID: "E", Name: "E", Mentions: []string{"E"}})
	base.AddFact(fact("d1", 0, "E", "be", 0.4, Value{Literal: "thing"}))
	base.AddFact(fact("d1", 1, "E", "have", 0.7, Value{Literal: "prop"}))
	d := Delta{
		Added:           []Fact{fact("d2", 0, "E", "be", 0.9, Value{Literal: "thing"})},
		Upgraded:        []Fact{fact("d2", 0, "E", "be", 0.9, Value{Literal: "thing"})},
		AddedEntities:   []EntityRecord{{ID: "E", Name: "E", Mentions: []string{"the E"}}},
		ChangedEntities: []EntityRecord{{ID: "E", Name: "E", Mentions: []string{"E", "the E"}}},
	}
	next := d.Apply(base)
	if got, want := d.FoldIdentity(base, next, base.Identity()), next.Identity(); got != want {
		t.Fatalf("FoldIdentity %s, want %s", got.Hex(), want.Hex())
	}
	if got, want := NewOverlay(base).Stage(&d).Identity(base.Identity()), next.Identity(); got != want {
		t.Fatalf("overlay step identity %s, want %s", got.Hex(), want.Hex())
	}

	// The same delta applied to a base that is not the one it was diffed
	// against, or folded from a wrong base identity, does not verify.
	if got := d.FoldIdentity(base, next, base.Identity().Add(Identity{1})); got == next.Identity() {
		t.Fatal("a wrong base identity folded to the right result")
	}
	bad := d
	bad.Upgraded = []Fact{fact("d2", 0, "E", "be", 0.9000000000000001, Value{Literal: "thing"})}
	badNext := bad.Apply(base)
	if bad.FoldIdentity(base, badNext, base.Identity()) != badNext.Identity() {
		t.Fatal("fold disagrees with the from-scratch identity of the corrupted result")
	}
	if badNext.Identity() == next.Identity() {
		t.Fatal("a corrupted confidence did not change the identity")
	}
}

// FoldIdentity is the reference for Step.Identity, folded over two flat
// KBs: the identity of next = d.Apply(base) from base's identity in
// O(|d|): only the fact keys and entity IDs the delta names
// can differ between the two KBs, so for each of them the hash of base's
// record is subtracted and the hash of next's record added. Both records
// are read from the actual KBs, never from the delta, so a delta that
// applied to something other than what its sender meant still changes
// the result. A key named twice (an Added fact whose key base already
// holds, say) is folded once.
func (d *Delta) FoldIdentity(base, next *KB, baseID Identity) Identity {
	var h lineHasher
	id := baseID
	seen := make(map[string]struct{}, len(d.Added)+len(d.Upgraded)+len(d.Removed))
	for _, facts := range [3][]Fact{d.Added, d.Upgraded, d.Removed} {
		for i := range facts {
			key := FactKey(&facts[i])
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if f, ok := base.factByKey(key); ok {
				id = id.Sub(h.fact(f))
			}
			if f, ok := next.factByKey(key); ok {
				id = id.Add(h.fact(f))
			}
		}
	}
	clear(seen)
	for _, ents := range [3][]EntityRecord{d.AddedEntities, d.ChangedEntities, d.RemovedEntities} {
		for i := range ents {
			eid := ents[i].ID
			if _, dup := seen[eid]; dup {
				continue
			}
			seen[eid] = struct{}{}
			if e := base.entities[eid]; e != nil {
				id = id.Sub(h.entity(e))
			}
			if e := next.entities[eid]; e != nil {
				id = id.Add(h.entity(e))
			}
		}
	}
	return id
}

// factByKey returns the fact stored under a dedup key.
func (kb *KB) factByKey(key string) (*Fact, bool) {
	i, ok := kb.byKey[key]
	if !ok {
		return nil, false
	}
	return &kb.facts[i], true
}
