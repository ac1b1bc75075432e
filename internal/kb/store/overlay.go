// Overlays: a KB version held as an immutable base KB plus the records
// changed since, so a chain of deltas applies at the cost of the deltas
// rather than of the KB. A follower replicating a leader stages each
// version's delta against its overlay, checks the leader's identity
// stamp, and commits the staged records only if the stamp matches; a
// flat KB is built only when something reads it.
package store

import "slices"

// Overlay is a KB version as an immutable base KB plus, for every fact
// key and entity ID a committed delta touched, the current record — or
// a tombstone, where the base holds the key and the version does not.
// Stage costs O(|delta|), and Commit O(|delta|) amortized: every record
// a delta names is read from the overlay, else from the base. Flatten
// builds the flat KB in one O(window) pass, equal field for field to
// applying the committed deltas one Delta.Apply at a time.
//
// The base is never written. An Overlay is not safe for concurrent use:
// callers serialize Stage, Commit and Flatten.
type Overlay struct {
	base *KB
	// facts and ents map each touched key or entity ID to its record at
	// the current version. A record not live is a tombstone; only keys
	// the base holds keep one (a key an overlay alone held is deleted).
	facts map[string]overlayFact
	ents  map[string]overlayEntity
	// factTail and entTail list the keys and IDs appended after the
	// base's records, in append order; a record appended at position i
	// has pos i+1. A key appended again (removed, then re-added) moves
	// to the end, leaving a stale earlier position behind.
	factTail []string
	entTail  []string
	nfacts   int
	nents    int
	keyBuf   []byte
}

// overlayFact is one fact key's record at the overlay's version. pos 0
// keeps the base's position; pos i > 0 is factTail position i-1.
type overlayFact struct {
	f    Fact
	live bool
	pos  int
}

// overlayEntity is overlayFact for entity records.
type overlayEntity struct {
	e    EntityRecord
	live bool
	pos  int
}

// NewOverlay returns an overlay at base's version, holding no changes.
// base must not be modified afterwards.
func NewOverlay(base *KB) *Overlay {
	return &Overlay{
		base:   base,
		facts:  make(map[string]overlayFact),
		ents:   make(map[string]overlayEntity),
		nfacts: len(base.facts),
		nents:  len(base.order),
	}
}

// Len returns the fact count of the overlay's version.
func (o *Overlay) Len() int { return o.nfacts }

// EntityCount returns the entity record count of the overlay's version.
func (o *Overlay) EntityCount() int { return o.nents }

// fact returns a key's record at the overlay's version.
func (o *Overlay) fact(key string) overlayFact {
	if r, ok := o.facts[key]; ok {
		return r
	}
	if i, ok := o.base.byKey[key]; ok {
		return overlayFact{f: o.base.facts[i], live: true}
	}
	return overlayFact{}
}

// entity returns an entity ID's record at the overlay's version.
func (o *Overlay) entity(id string) overlayEntity {
	if r, ok := o.ents[id]; ok {
		return r
	}
	if e := o.base.entities[id]; e != nil {
		return overlayEntity{e: *e, live: true}
	}
	return overlayEntity{}
}

// Step is one delta staged against an Overlay: the record it derives
// for every fact key and entity ID the delta names, next to the record
// each replaces. Committing it makes those records the overlay's; a
// step that is dropped leaves the overlay as it was.
type Step struct {
	o        *Overlay
	facts    map[string]stagedFact
	ents     map[string]stagedEntity
	factTail []string
	entTail  []string
}

type stagedFact struct{ old, new overlayFact }

type stagedEntity struct{ old, new overlayEntity }

// Stage derives the records d leaves at every key and entity ID it
// names, under Apply's per-key rules, reading what each replaces from
// the overlay. Facts: a Removed key the version holds goes; an Upgraded
// key it still holds takes the upgraded record in place (an upgrade of
// an absent key is ignored); an Added key it holds folds in under the
// AddFact winner rule, and an Added key it lacks is appended. Entities
// alike: Removed goes, Changed replaces a record in place, Added extends
// a held record the way AddEntity merges or is appended. Records are
// copied out of d, so d may be reused. Stage writes nothing to the
// overlay; at most one step may be pending at a time.
func (o *Overlay) Stage(d *Delta) *Step {
	s := &Step{
		o:     o,
		facts: make(map[string]stagedFact, len(d.Added)+len(d.Upgraded)+len(d.Removed)),
		ents:  make(map[string]stagedEntity, len(d.AddedEntities)+len(d.ChangedEntities)+len(d.RemovedEntities)),
	}
	for i := range d.Removed {
		key, cur := s.fact(&d.Removed[i])
		if cur.live {
			s.setFact(key, overlayFact{})
		}
	}
	for i := range d.Upgraded {
		key, cur := s.fact(&d.Upgraded[i])
		if cur.live {
			s.setFact(key, overlayFact{f: copyFact(&d.Upgraded[i]), live: true, pos: cur.pos})
		}
	}
	for i := range d.RemovedEntities {
		if cur := s.entity(d.RemovedEntities[i].ID); cur.live {
			s.setEntity(d.RemovedEntities[i].ID, overlayEntity{})
		}
	}
	for i := range d.ChangedEntities {
		rec := &d.ChangedEntities[i]
		if cur := s.entity(rec.ID); cur.live {
			s.setEntity(rec.ID, overlayEntity{e: newEntity(rec), live: true, pos: cur.pos})
		}
	}
	for i := range d.AddedEntities {
		rec := &d.AddedEntities[i]
		cur := s.entity(rec.ID)
		if !cur.live {
			s.entTail = append(s.entTail, rec.ID)
			s.setEntity(rec.ID, overlayEntity{e: newEntity(rec), live: true, pos: len(o.entTail) + len(s.entTail)})
			continue
		}
		// AddEntity's merge, into a copy: the current record may be the
		// base's or a committed one, and both are immutable.
		e := copyEntity(&cur.e)
		mergeEntity(&e, rec)
		s.setEntity(rec.ID, overlayEntity{e: e, live: true, pos: cur.pos})
	}
	for i := range d.Added {
		f := &d.Added[i]
		key, cur := s.fact(f)
		if !cur.live {
			s.factTail = append(s.factTail, key)
			s.setFact(key, overlayFact{f: copyFact(f), live: true, pos: len(o.factTail) + len(s.factTail)})
			continue
		}
		if keepWinner(&cur.f, f) {
			s.setFact(key, cur)
		}
	}
	return s
}

// fact returns a delta record's key and the key's record as staged so
// far: the step's, else the overlay's.
func (s *Step) fact(f *Fact) (string, overlayFact) {
	s.o.keyBuf = appendFactKey(s.o.keyBuf[:0], f)
	key := string(s.o.keyBuf)
	if r, ok := s.facts[key]; ok {
		return key, r.new
	}
	return key, s.o.fact(key)
}

// entity returns an entity ID's record as staged so far.
func (s *Step) entity(id string) overlayEntity {
	if r, ok := s.ents[id]; ok {
		return r.new
	}
	return s.o.entity(id)
}

// setFact stages a key's record, remembering on first touch the record
// it replaces.
func (s *Step) setFact(key string, r overlayFact) {
	st, ok := s.facts[key]
	if !ok {
		st.old = s.o.fact(key)
	}
	st.new = r
	s.facts[key] = st
}

func (s *Step) setEntity(id string, r overlayEntity) {
	st, ok := s.ents[id]
	if !ok {
		st.old = s.o.entity(id)
	}
	st.new = r
	s.ents[id] = st
}

// Identity returns the content identity of the staged version from
// prev, the identity of the overlay's version, in O(|delta|): for each
// key and entity ID the step touched, the hash of the record it
// replaces is subtracted and that of the record it leaves added — the
// fold FoldIdentity in identity_test.go makes over two flat KBs.
func (s *Step) Identity(prev Identity) Identity {
	var h lineHasher
	id := prev
	for _, r := range s.facts {
		if r.old.live {
			id = id.Sub(h.fact(&r.old.f))
		}
		if r.new.live {
			id = id.Add(h.fact(&r.new.f))
		}
	}
	for _, r := range s.ents {
		if r.old.live {
			id = id.Sub(h.entity(&r.old.e))
		}
		if r.new.live {
			id = id.Add(h.entity(&r.new.e))
		}
	}
	return id
}

// Commit makes a step staged against o the overlay's version. Once the
// overlay holds more changed records than its base does records, it is
// flattened into a fresh base (see Flatten), so an overlay never holds
// much more than twice the version it represents and the O(window)
// flattening amortizes over the deltas that filled it.
func (o *Overlay) Commit(s *Step) {
	o.commit(s)
	base := len(o.base.facts) + len(o.base.order)
	if max(len(o.facts)+len(o.ents), len(o.factTail)+len(o.entTail)) > base {
		o.Flatten()
	}
}

// commit is Commit without the flattening policy.
func (o *Overlay) commit(s *Step) {
	if s.o != o {
		panic("store: Overlay.Commit of a step not pending on this overlay")
	}
	for key, r := range s.facts {
		o.nfacts += b2i(r.new.live) - b2i(r.old.live)
		if _, inBase := o.base.byKey[key]; r.new.live || inBase {
			o.facts[key] = r.new
		} else {
			delete(o.facts, key)
		}
	}
	for id, r := range s.ents {
		o.nents += b2i(r.new.live) - b2i(r.old.live)
		if _, inBase := o.base.entities[id]; r.new.live || inBase {
			o.ents[id] = r.new
		} else {
			delete(o.ents, id)
		}
	}
	o.factTail = append(o.factTail, s.factTail...)
	o.entTail = append(o.entTail, s.entTail...)
	s.o = nil // a step commits once
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Flatten materializes the overlay's version and makes the result its
// new base, holding no changes. The returned KB is that base: callers
// may read it, never modify it. An overlay that holds no changes — just
// flattened, or just made — returns its base as it is.
func (o *Overlay) Flatten() *KB {
	if len(o.facts) == 0 && len(o.ents) == 0 && len(o.factTail) == 0 && len(o.entTail) == 0 {
		return o.base
	}
	kb := o.materialize()
	*o = *NewOverlay(kb)
	return kb
}

// materialize builds the flat KB of the overlay's version: the base's
// facts in order, minus the keys it no longer holds and with in-place
// records substituted, then the appended facts in append order; entity
// records alike. Surviving base records keep their dedup keys and
// field-index postings (renumbered), so only appended facts derive
// theirs. Fact object slices and entity mention/type slices are shared
// with the base and the overlay, capped so a later AddEntity on the
// result reallocates instead of writing into either.
func (o *Overlay) materialize() *KB {
	base := o.base
	// newIdx maps each base fact to its index in the result (-1 when
	// gone or moved to the tail); in-place records are patched in after.
	newIdx := make([]int, len(base.facts))
	for key, r := range o.facts {
		if i, ok := base.byKey[key]; ok && (!r.live || r.pos > 0) {
			newIdx[i] = -1
		}
	}
	out := &KB{
		facts: slices.Grow([]Fact(nil), o.nfacts), // nil when empty, as in New
		byKey: make(map[string]int, o.nfacts),
	}
	for i := range base.facts {
		if newIdx[i] < 0 {
			continue
		}
		newIdx[i] = len(out.facts)
		f := base.facts[i]
		f.ID = len(out.facts)
		out.facts = append(out.facts, f)
	}
	out.nextID = len(out.facts)
	for key, r := range o.facts {
		if r.live && r.pos == 0 {
			j := newIdx[base.byKey[key]]
			r.f.ID = j
			out.facts[j] = r.f
		}
	}
	for k, i := range base.byKey {
		if j := newIdx[i]; j >= 0 {
			out.byKey[k] = j
		}
	}
	out.bySubject = remapPostings(base.bySubject, newIdx)
	out.byObject = remapPostings(base.byObject, newIdx)
	out.byRel = remapPostings(base.byRel, newIdx)

	out.entities = make(map[string]*EntityRecord, o.nents)
	out.order = slices.Grow([]string(nil), o.nents)
	recs := make([]EntityRecord, 0, o.nents)
	put := func(e *EntityRecord) {
		cp := *e
		cp.Mentions = cp.Mentions[:len(cp.Mentions):len(cp.Mentions)]
		cp.Types = cp.Types[:len(cp.Types):len(cp.Types)]
		recs = append(recs, cp)
		out.entities[cp.ID] = &recs[len(recs)-1]
		out.order = append(out.order, cp.ID)
	}
	for _, id := range base.order {
		r, ok := o.ents[id]
		switch {
		case !ok:
			put(base.entities[id])
		case r.live && r.pos == 0:
			put(&r.e)
		}
	}
	for i, id := range o.entTail {
		if r := o.ents[id]; r.live && r.pos == i+1 {
			put(&r.e)
		}
	}
	for i, key := range o.factTail {
		if r := o.facts[key]; r.live && r.pos == i+1 {
			out.AddFact(r.f)
		}
	}
	return out
}

// remapPostings carries a field index over to materialize's renumbered
// facts: every posting list keeps its surviving entries, in order, under
// their new indices, and a list left empty is dropped.
func remapPostings(idx map[string][]int, newIdx []int) map[string][]int {
	out := make(map[string][]int, len(idx))
	for k, posts := range idx {
		var kept []int
		for _, p := range posts {
			if q := newIdx[p]; q >= 0 {
				if kept == nil {
					kept = make([]int, 0, len(posts))
				}
				kept = append(kept, q)
			}
		}
		if kept != nil {
			out[k] = kept
		}
	}
	return out
}

// copyFact copies a delta's fact record with its own object slice.
func copyFact(f *Fact) Fact {
	cp := *f
	cp.Objects = append([]Value(nil), f.Objects...)
	return cp
}
