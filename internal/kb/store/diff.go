// Key-based fact diffs between KB versions. A Delta captures how one
// version's content differs from another at dedup-key granularity:
// facts whose key appears only in the new version (Added), facts whose
// key disappeared (Removed), and facts present in both whose winning
// record changed in place (Upgraded — a confidence raise from new
// evidence, or, after an eviction, the surviving lower-confidence
// record). Entity records diff the same way.
//
// Deltas are the session layer's delta plumbing: watchers receive
// Added+Upgraded facts, FactsSince replays them, and Apply reconstructs
// the newer version from the older one — apply(a, Diff(a, b)) is
// fingerprint-identical to b.
package store

import (
	"slices"
	"sort"
)

// Delta is the key-based difference between two KB versions (old → new).
// All slices are sorted by dedup key (facts) or entity ID, so a delta is
// deterministic regardless of how the versions were assembled.
//
// Delta facts are identified by their content (subject, relation,
// objects), not by Fact.ID: a fact's ID is local to one materialized
// KB, so every fact a Delta carries has ID -1. Consumers correlating
// events across versions should key on the fact's content.
type Delta struct {
	// Added holds the new version's facts whose keys the old version did
	// not contain.
	Added []Fact
	// Upgraded holds the new version's record for every key present in
	// both versions whose record changed (see factChanged) — a confidence
	// raise from new evidence, or a downgrade or respelling caused by
	// evicting the previously winning or oldest evidence.
	Upgraded []Fact
	// Removed holds the old version's record for every key the new
	// version no longer contains.
	Removed []Fact

	// Entity-level changes, keyed by entity ID: records only in the new
	// version, records whose name/mentions/types/emerging flag changed
	// (new state), and records only in the old version (old state).
	AddedEntities   []EntityRecord
	ChangedEntities []EntityRecord
	RemovedEntities []EntityRecord
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Upgraded) == 0 && len(d.Removed) == 0 &&
		len(d.AddedEntities) == 0 && len(d.ChangedEntities) == 0 && len(d.RemovedEntities) == 0
}

// factChanged reports whether the record under one key differs between
// two versions: in the fields AddFact updates in place, or in spelling —
// key equality pins the subject, relation and objects only up to case,
// and the materialized KB spells a key as its oldest surviving
// occurrence does, so evicting that occurrence can respell it.
func factChanged(old, new *Fact) bool {
	return old.Confidence != new.Confidence || old.Source != new.Source || old.Pattern != new.Pattern ||
		old.Relation != new.Relation || old.Subject != new.Subject || !slices.Equal(old.Objects, new.Objects)
}

// entityChanged reports whether two records for the same entity ID
// differ semantically (mention/type comparison is order-insensitive,
// matching Fingerprint).
func entityChanged(old, new *EntityRecord) bool {
	return old.Name != new.Name || old.Emerging != new.Emerging ||
		!sameStringSet(old.Mentions, new.Mentions) || !sameStringSet(old.Types, new.Types)
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Diff computes the key-based delta from old to new. It walks the two
// KBs' byKey indices directly — O(|old| + |new|) map probes, no key
// re-derivation — and sorts the result for determinism.
func Diff(old, new *KB) Delta {
	var d Delta
	type keyed struct {
		key string
		f   Fact
	}
	var added, upgraded, removed []keyed
	for k, ni := range new.byKey {
		oi, ok := old.byKey[k]
		if !ok {
			added = append(added, keyed{k, new.facts[ni]})
			continue
		}
		if factChanged(&old.facts[oi], &new.facts[ni]) {
			upgraded = append(upgraded, keyed{k, new.facts[ni]})
		}
	}
	for k, oi := range old.byKey {
		if _, ok := new.byKey[k]; !ok {
			removed = append(removed, keyed{k, old.facts[oi]})
		}
	}
	take := func(ks []keyed) []Fact {
		if len(ks) == 0 {
			return nil
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		out := make([]Fact, len(ks))
		for i, kf := range ks {
			out[i] = kf.f
			out[i].ID = -1 // deltas identify facts by content, not KB-local ID
		}
		return out
	}
	d.Added, d.Upgraded, d.Removed = take(added), take(upgraded), take(removed)

	for _, id := range new.order {
		ne := new.entities[id]
		oe, ok := old.entities[id]
		switch {
		case !ok:
			d.AddedEntities = append(d.AddedEntities, *ne)
		case entityChanged(oe, ne):
			d.ChangedEntities = append(d.ChangedEntities, *ne)
		}
	}
	for _, id := range old.order {
		if _, ok := new.entities[id]; !ok {
			d.RemovedEntities = append(d.RemovedEntities, *old.entities[id])
		}
	}
	sortEnts := func(es []EntityRecord) {
		sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	}
	sortEnts(d.AddedEntities)
	sortEnts(d.ChangedEntities)
	sortEnts(d.RemovedEntities)
	return d
}

// DiffTrees computes the same delta as Diff over the two trees'
// materialized KBs, without materializing either, together with the
// identity change it carries: Identity(new) − Identity(old), the hashes
// of the records it adds or upgrades to minus those of the records it
// removes or replaces. changed must contain every leaf segment added to
// or removed from old to obtain new: only keys (and entity IDs) those
// segments mention can change winners, so the walk visits the candidate
// keys (and entity IDs) in ascending order and looks each up in every
// run. A run that is itself a changed leaf — an ingest's loose runs, an
// evicted leaf still a run of old — holds nothing but candidates, so its
// hits come from walking its own sorted records alongside; every other
// run is binary-searched, O(|changed| · R · log n) for R such runs of at
// most n records, instead of O(window). A run both trees hold (they
// share every unchanged run by pointer) is visited once for both. The
// session layer uses this to publish each version's delta, counts and
// identity at sliding-ingest cost.
func DiffTrees(old, new *Tree, changed []*Segment) (Delta, Identity) {
	var d Delta
	var did Identity
	var h lineHasher
	anon := func(f *Fact) Fact { // segment-local IDs are meaningless; see Delta
		cp := *f
		cp.ID = -1
		return cp
	}
	runs := pairRuns(old, new)
	walked := runs.changedLeaves(changed)
	facts := make([]*Fact, len(runs.segs))
	for _, key := range candidateKeys(changed) {
		for i, seg := range runs.segs {
			if w := &walked[i]; w.d != nil {
				facts[i] = w.fact(key)
			} else {
				facts[i], _ = seg.Lookup(key)
			}
		}
		of, oldOK := foldFact(runs.old, facts)
		nf, newOK := foldFact(runs.new, facts)
		switch {
		case newOK && !oldOK:
			d.Added = append(d.Added, anon(nf))
			did = did.Add(h.fact(nf))
		case oldOK && !newOK:
			d.Removed = append(d.Removed, anon(of))
			did = did.Sub(h.fact(of))
		case oldOK && newOK && factChanged(of, nf):
			d.Upgraded = append(d.Upgraded, anon(nf))
			did = did.Add(h.fact(nf)).Sub(h.fact(of))
		}
	}
	ents := make([]*EntityRecord, len(runs.segs))
	for _, id := range candidateEntities(changed) {
		for i, seg := range runs.segs {
			if w := &walked[i]; w.d != nil {
				ents[i] = w.entity(id)
				continue
			}
			ents[i] = nil
			p := seg.payload()
			if j := p.entity(id); j >= 0 {
				ents[i] = &p.ents[j]
			}
		}
		oe, oldOK := foldEntity(runs.old, ents)
		ne, newOK := foldEntity(runs.new, ents)
		switch {
		case newOK && !oldOK:
			d.AddedEntities = append(d.AddedEntities, ne)
			did = did.Add(h.entity(&ne))
		case oldOK && !newOK:
			d.RemovedEntities = append(d.RemovedEntities, oe)
			did = did.Sub(h.entity(&oe))
		case oldOK && newOK && entityChanged(&oe, &ne):
			d.ChangedEntities = append(d.ChangedEntities, ne)
			did = did.Add(h.entity(&ne)).Sub(h.entity(&oe))
		}
	}
	return d, did
}

// leafWalk walks one changed leaf's records in key (and entity ID) order
// alongside the ascending candidates. Every key the leaf holds is a
// candidate, so its next unvisited record either matches the candidate
// asked for or comes later.
type leafWalk struct {
	d      *segData // nil: the run is not a changed leaf
	fi, ei int      // next position in d.sorted and d.entSorted
}

func (w *leafWalk) fact(key string) *Fact {
	if w.fi < len(w.d.sorted) {
		if i := w.d.sorted[w.fi]; w.d.keys[i] == key {
			w.fi++
			return &w.d.facts[i]
		}
	}
	return nil
}

func (w *leafWalk) entity(id string) *EntityRecord {
	if w.ei < len(w.d.entSorted) {
		if i := w.d.entSorted[w.ei]; w.d.ents[i].ID == id {
			w.ei++
			return &w.d.ents[i]
		}
	}
	return nil
}

// runPair lists the distinct runs of two trees, so a lookup visits a
// run both hold once; old and new give each tree's runs, oldest first,
// as indices into segs.
type runPair struct {
	segs     []*Segment
	old, new []int
}

func pairRuns(old, new *Tree) runPair {
	p := runPair{
		segs: make([]*Segment, 0, len(old.runs)+len(new.runs)),
		old:  make([]int, len(old.runs)),
		new:  make([]int, len(new.runs)),
	}
	at := make(map[*Segment]int, len(old.runs))
	for i, r := range old.runs {
		at[r.seg] = len(p.segs)
		p.old[i] = len(p.segs)
		p.segs = append(p.segs, r.seg)
	}
	for i, r := range new.runs {
		j, ok := at[r.seg]
		if !ok {
			j = len(p.segs)
			p.segs = append(p.segs, r.seg)
		}
		p.new[i] = j
	}
	return p
}

// changedLeaves returns, per run, a walk over its records if the run is
// one of the changed leaves, and a zero leafWalk otherwise.
func (p runPair) changedLeaves(changed []*Segment) []leafWalk {
	leaf := make(map[*Segment]bool, len(changed))
	for _, c := range changed {
		leaf[c] = true
	}
	walks := make([]leafWalk, len(p.segs))
	for i, seg := range p.segs {
		if leaf[seg] {
			walks[i].d = seg.payload()
		}
	}
	return walks
}

// foldFact folds one key's per-run hits (nil where a run lacks the key)
// over one tree's runs, as Tree.Lookup does.
func foldFact(runs []int, hits []*Fact) (*Fact, bool) {
	var w factWinner
	for _, i := range runs {
		if hits[i] != nil {
			w.add(hits[i])
		}
	}
	return w.result()
}

// foldEntity folds one entity ID's per-run records over one tree's runs,
// as Tree.LookupEntity does.
func foldEntity(runs []int, hits []*EntityRecord) (EntityRecord, bool) {
	var u entityUnion
	for _, i := range runs {
		if hits[i] != nil {
			u.add(hits[i])
		}
	}
	return u.rec, u.found
}

// Apply reconstructs the newer version from base: base's facts minus
// Removed keys, with Upgraded records substituted in place and Added
// facts appended (an Added key base already holds folds in under the
// AddFact winner rule); entities likewise. apply(a, Diff(a, b)) is
// fingerprint-identical to b for any two KBs. base is not mutated.
//
// It is one step of an Overlay over base, materialized: the result is
// O(|base|) to build but re-derives nothing base already knows (see
// Overlay.materialize), and a follower applying a chain of deltas runs
// the same per-key rules without the per-version materialization.
func (d *Delta) Apply(base *KB) *KB {
	o := NewOverlay(base)
	o.commit(o.Stage(d))
	return o.materialize()
}
