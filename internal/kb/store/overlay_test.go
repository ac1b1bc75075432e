package store

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chainFact draws a fact from a key space of about a hundred keys, so a
// chain of deltas keeps naming keys the version holds or used to hold.
// Relations and literals vary in case, which the dedup key ignores: an
// upgrade can respell a key in place.
func chainFact(rng *rand.Rand) Fact {
	obj := Value{EntityID: fmt.Sprintf("E%d", rng.Intn(5))}
	if rng.Intn(2) == 0 {
		obj = Value{Literal: respell(rng, fmt.Sprintf("lit%d", rng.Intn(3)))}
	}
	return Fact{
		ID:         rng.Intn(100), // deltas carry -1; a stray ID must not leak
		Subject:    Value{EntityID: fmt.Sprintf("E%d", rng.Intn(5))},
		Relation:   respell(rng, fmt.Sprintf("rel%d", rng.Intn(3))),
		Pattern:    fmt.Sprintf("pat%d", rng.Intn(3)),
		Objects:    []Value{obj},
		Confidence: float64(1+rng.Intn(5)) / 10,
		Source:     Provenance{DocID: fmt.Sprintf("d%d", rng.Intn(4)), SentIndex: rng.Intn(3)},
	}
}

func respell(rng *rand.Rand, s string) string {
	if rng.Intn(3) == 0 {
		return strings.ToUpper(s)
	}
	return s
}

// chainEntity draws an entity record over seven IDs.
func chainEntity(rng *rand.Rand, id string) EntityRecord {
	if id == "" {
		id = fmt.Sprintf("E%d", rng.Intn(7))
	}
	var mentions []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		mentions = append(mentions, fmt.Sprintf("m%d", rng.Intn(5)))
	}
	return EntityRecord{
		ID:       id,
		Name:     fmt.Sprintf("name%d", rng.Intn(3)),
		Mentions: mentions,
		Types:    []string{hierarchyTypes[rng.Intn(len(hierarchyTypes))]},
		Emerging: rng.Intn(2) == 0,
	}
}

// chainDelta draws a delta against cur that exercises every per-key
// rule: removals and upgrades of held and absent keys, additions of held
// keys (the winner rule), re-additions of keys removed in this delta or
// an earlier one, and the same mix for entity records. gone collects
// the keys and IDs removed so far, for later re-adds.
func chainDelta(rng *rand.Rand, cur *KB, gone *[]Fact, goneEnts *[]EntityRecord) Delta {
	var d Delta
	for _, f := range cur.facts {
		switch rng.Intn(8) {
		case 0:
			f.ID = -1
			d.Removed = append(d.Removed, f)
			*gone = append(*gone, f)
		case 1:
			up := f
			up.ID = -1
			up.Relation = respell(rng, strings.ToLower(f.Relation))
			up.Confidence = float64(1+rng.Intn(9)) / 10
			up.Source = Provenance{DocID: fmt.Sprintf("u%d", rng.Intn(3))}
			d.Upgraded = append(d.Upgraded, up)
		}
	}
	for i := rng.Intn(3); i > 0; i-- { // upgrades of keys the version may lack
		d.Upgraded = append(d.Upgraded, chainFact(rng))
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Removed = append(d.Removed, chainFact(rng))
	}
	for i := rng.Intn(6); i > 0; i-- {
		d.Added = append(d.Added, chainFact(rng))
	}
	if len(*gone) > 0 && rng.Intn(2) == 0 {
		f := (*gone)[rng.Intn(len(*gone))]
		f.Confidence = float64(1+rng.Intn(9)) / 10
		d.Added = append(d.Added, f)
	}
	for _, id := range cur.order {
		switch rng.Intn(8) {
		case 0:
			e := *cur.entities[id]
			d.RemovedEntities = append(d.RemovedEntities, e)
			*goneEnts = append(*goneEnts, e)
		case 1:
			d.ChangedEntities = append(d.ChangedEntities, chainEntity(rng, id))
		}
	}
	if rng.Intn(2) == 0 {
		d.ChangedEntities = append(d.ChangedEntities, chainEntity(rng, ""))
	}
	for i := rng.Intn(4); i > 0; i-- {
		d.AddedEntities = append(d.AddedEntities, chainEntity(rng, ""))
	}
	if len(*goneEnts) > 0 && rng.Intn(2) == 0 {
		d.AddedEntities = append(d.AddedEntities, (*goneEnts)[rng.Intn(len(*goneEnts))])
	}
	return d
}

// TestOverlayChainMatchesReference: over random delta chains, an
// overlay staging and committing each delta holds, at every version,
// exactly the KB the sequential applyReference chain builds — field for
// field once materialized, and in its counts — and its folded identity
// equals FoldIdentity's over the two flat KBs. Resets re-baseline on a
// fresh overlay over an empty KB, as a follower does; reads flatten
// the overlay at random versions; a staged step that is dropped leaves
// no trace; and no base is ever written.
func TestOverlayChainMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		ref := New()
		o := NewOverlay(ref)
		var id Identity
		var gone []Fact
		var goneEnts []EntityRecord
		base, baseFP := ref, ref.Fingerprint()
		for v := 1; v <= 40; v++ {
			label := fmt.Sprintf("seed %d v%d", seed, v)
			var d Delta
			if rng.Intn(12) == 0 {
				// Reset: the full diff from empty of an unrelated KB.
				next := New()
				for i := 0; i < 4; i++ {
					next.Merge(typedShard(rng, fmt.Sprintf("r%d", i)))
				}
				d = Diff(New(), next)
				ref, id, gone, goneEnts = New(), Identity{}, nil, nil
				o = NewOverlay(ref)
				base, baseFP = ref, ""
			} else {
				d = chainDelta(rng, ref, &gone, &goneEnts)
			}
			if rng.Intn(5) == 0 {
				// A step staged and dropped, as a quarantined version is.
				bad := chainDelta(rng, ref, new([]Fact), new([]EntityRecord))
				o.Stage(&bad)
			}
			next := applyReference(&d, ref)
			sameLayout(t, d.Apply(ref), next, label+" Apply")

			step := o.Stage(&d)
			got := step.Identity(id)
			if want := d.FoldIdentity(ref, next, id); got != want {
				t.Fatalf("%s: step identity %s, FoldIdentity %s", label, got.Hex(), want.Hex())
			}
			if got != next.Identity() {
				t.Fatalf("%s: step identity %s, KB identity %s", label, got.Hex(), next.Identity().Hex())
			}
			o.Commit(step)
			if o.Len() != next.Len() || o.EntityCount() != len(next.order) {
				t.Fatalf("%s: overlay counts %d facts / %d entities, want %d / %d",
					label, o.Len(), o.EntityCount(), next.Len(), len(next.order))
			}
			if rng.Intn(4) == 0 {
				flat := o.Flatten()
				sameLayout(t, flat, next, label+" Flatten")
				if o.Flatten() != flat {
					t.Fatalf("%s: flattening an unchanged overlay rebuilt its base", label)
				}
				base, baseFP = flat, flat.Fingerprint()
			} else {
				sameLayout(t, o.materialize(), next, label)
			}
			if o.base != base {
				base, baseFP = o.base, o.base.Fingerprint() // Commit flattened
			}
			if base.Fingerprint() != baseFP {
				t.Fatalf("%s: the overlay wrote into its base", label)
			}
			ref, id = next, got
		}
	}
}

// TestOverlayStaysBounded: committing a long sliding chain flattens the
// overlay whenever its changes outgrow its base, so it never holds more
// changed records than its base holds records; a read right after such a
// flattening returns the new base without building it again.
func TestOverlayStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shards := make([]*KB, 200)
	for i := range shards {
		shards[i] = wideShard(rng, fmt.Sprintf("doc%03d", i))
	}
	const window = 32
	prev := flatMerge(shards[:window])
	o := NewOverlay(prev)
	flattened := 0
	for i := window; i < len(shards); i++ {
		next := flatMerge(shards[i-window+1 : i+1])
		d := Diff(prev, next)
		before := o.base
		o.Commit(o.Stage(&d))
		if o.base != before {
			flattened++
			if o.Flatten() != o.base {
				t.Fatalf("step %d: reading just after Commit flattened rebuilt the base", i)
			}
		}
		baseSize := len(o.base.facts) + len(o.base.order)
		if n := len(o.facts) + len(o.ents); n > baseSize {
			t.Fatalf("step %d: overlay holds %d changed records over a base of %d", i, n, baseSize)
		}
		if o.Len() != next.Len() || o.EntityCount() != len(next.order) {
			t.Fatalf("step %d: counts %d/%d, want %d/%d", i, o.Len(), o.EntityCount(), next.Len(), len(next.order))
		}
		prev = next
	}
	if flattened == 0 {
		t.Fatal("the overlay never flattened over a chain that replaced its whole window")
	}
	if o.materialize().Fingerprint() != prev.Fingerprint() {
		t.Fatal("the chain ended on the wrong KB")
	}
}
