// Segmented substrate of the on-the-fly KB: a Segment is an immutable,
// sealed unit of KB content — one document's canonicalized shard, or the
// merge of several adjacent ones. Segments are what the session layer's
// merge tree (tree.go) is built from: because they are immutable they can
// be shared freely between versions, sessions and the serving layer's
// caches, and because their facts carry precomputed dedup keys, merging
// two segments is a linear sorted join instead of per-fact map probing.
//
// The crucial ordering property: a merged segment keeps facts in
// first-occurrence order (all of the left input's facts, with in-place
// winner upgrades applied, then the right input's novel facts in their
// original order) and entities in first-seen order with left-first
// mention/type unions. That makes segment merging associative in content
// *and* in layout over an ordered sequence of document shards: folding
// any adjacency-preserving merge tree over shards s1..sn and then
// materializing produces exactly the KB that kb.Merge(s1), ...,
// kb.Merge(sn) produces — same facts in the same slice order with the
// same IDs, same entity records — which is what keeps every session
// version fingerprint-identical to a one-shot batch build.
package store

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qkbfly/internal/intern"
)

// segData is a segment's resident payload. It is immutable once built
// and shared by pointer; a demoted segment drops its pointer and faults
// a fresh one back in from the persistence layer on next access.
type segData struct {
	facts []Fact   // first-occurrence order; Objects owned by the segment
	keys  []string // keys[i] is the dedup key of facts[i]
	// sorted holds fact indices ordered by key — the join index for
	// merging and the binary-search index for Lookup.
	sorted []int32

	// POS (predicate–object–subject) secondary index: one entry per
	// (fact, distinct object value) — plus one per zero-object fact —
	// sorted by POS key (see appendPOSKey). Filled by every constructor:
	// seal, merge and blob decode. posKeys is positional (entry i's key,
	// not a permutation); posFact maps entries to fact indices; posOrd
	// records which object produced the entry (0 = the zero-object entry,
	// k > 0 = Objects[k-1]) so the codec can rebuild keys
	// deterministically.
	posKeys []string
	posFact []int32
	posOrd  []int32

	ents []EntityRecord // first-seen order; Mentions/Types owned
	// entSorted holds entity indices ordered by ID — the binary-search
	// index for Tree.LookupEntity and the join index for merging. Filled
	// by every constructor: seal, merge and blob decode.
	entSorted []int32

	bytes int // approximate resident heap footprint
}

// appendPOSKey appends the POS index key of one (fact, object) entry:
// the lowered relation, the object's value key (empty for the
// zero-object entry), and the fact's full dedup key. Embedding the dedup
// key makes entries unique within a segment, and — because relation and
// object keys are case-normalized exactly like dedup keys — equal POS
// keys across runs name the same fact, so TreeCursor's cross-run winner
// folding works unchanged over either index.
func appendPOSKey(buf []byte, f *Fact, dedupKey string, ord int32) []byte {
	buf = intern.AppendLower(buf, f.Relation)
	buf = append(buf, '|')
	if ord > 0 {
		buf = appendValueKey(buf, f.Objects[ord-1])
	}
	buf = append(buf, '|')
	return append(buf, dedupKey...)
}

// buildPOS derives the POS index from the payload's facts and dedup
// keys. Repeated object values within one fact collapse to a single
// entry (the first ordinal wins), mirroring how the dedup key already
// fixes the object sequence.
func (d *segData) buildPOS() {
	est := 0
	for i := range d.facts {
		if n := len(d.facts[i].Objects); n > 0 {
			est += n
		} else {
			est++
		}
	}
	keys := make([]string, 0, est)
	fact := make([]int32, 0, est)
	ord := make([]int32, 0, est)
	var buf []byte
	for i := range d.facts {
		f := &d.facts[i]
		if len(f.Objects) == 0 {
			buf = appendPOSKey(buf[:0], f, d.keys[i], 0)
			keys = append(keys, string(buf))
			fact = append(fact, int32(i))
			ord = append(ord, 0)
			continue
		}
		start := len(keys)
		for j := range f.Objects {
			buf = appendPOSKey(buf[:0], f, d.keys[i], int32(j+1))
			k := string(buf)
			dup := false
			for _, prev := range keys[start:] {
				if prev == k {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			keys = append(keys, k)
			fact = append(fact, int32(i))
			ord = append(ord, int32(j+1))
		}
	}
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	d.posKeys = make([]string, len(keys))
	d.posFact = make([]int32, len(keys))
	d.posOrd = make([]int32, len(keys))
	for i, p := range perm {
		d.posKeys[i] = keys[p]
		d.posFact[i] = fact[p]
		d.posOrd[i] = ord[p]
	}
}

// buildEntIndex derives the entity ID index from the payload's records.
func (d *segData) buildEntIndex() {
	d.entSorted = make([]int32, len(d.ents))
	for i := range d.entSorted {
		d.entSorted[i] = int32(i)
	}
	slices.SortFunc(d.entSorted, func(a, b int32) int { return strings.Compare(d.ents[a].ID, d.ents[b].ID) })
}

// entity returns the index in ents of the record for id, or -1.
func (d *segData) entity(id string) int {
	i := sort.Search(len(d.entSorted), func(i int) bool { return d.ents[d.entSorted[i]].ID >= id })
	if i < len(d.entSorted) && d.ents[d.entSorted[i]].ID == id {
		return int(d.entSorted[i])
	}
	return -1
}

// segClock is a process-wide access tick used to order segments for LRU
// demotion (see Segment.LastUse).
var segClock atomic.Uint64

// Segment is an immutable, sealed span of KB content. Its metadata
// (identity, document count, fact count) is plain read-only state; its
// payload (facts, keys, entities) lives behind an atomic pointer so the
// persistence layer can demote cold segments to disk and fault them back
// transparently on access. Segments may be shared between goroutines,
// sessions and caches without synchronization.
type Segment struct {
	// id identifies the segment's content for partial-merge caching:
	// leaf segments are stamped by their builder (document ID + build
	// options), merged segments derive theirs from their inputs. Empty
	// means "not cacheable" (e.g. anonymous documents).
	id string
	// docs counts the document shards folded into this segment.
	docs int
	// buildTime is the pipeline time behind this segment (the sum over
	// merged inputs) — carried for the serving layer's saved-time
	// accounting.
	buildTime time.Duration
	// factCount and entCount mirror the payload's lengths so size
	// queries (Len, Tree.FactCount) never fault a demoted segment in.
	factCount int
	entCount  int

	data    atomic.Pointer[segData]
	lastUse atomic.Uint64 // segClock tick of the most recent payload access
	// ident memoizes the segment's own content identity (see identity);
	// content is immutable, so it survives demotion.
	ident atomic.Pointer[segIdentity]

	// loadMu serializes faults and guards load.
	loadMu sync.Mutex
	// load rehydrates the payload of a demoted segment (attached by the
	// persistence layer; nil for purely in-memory segments, which are
	// never demoted).
	load func() (*Segment, error)
}

// payload returns the segment's resident data, faulting it back in from
// the attached loader when demoted.
func (s *Segment) payload() *segData {
	if d := s.data.Load(); d != nil {
		s.lastUse.Store(segClock.Add(1))
		return d
	}
	return s.faultIn()
}

// faultIn reloads a demoted segment's payload under loadMu. The loader is
// responsible for recovery (checksum quarantine, rebuild from children);
// a loader that still fails indicates the backing store was lost at
// runtime, which is unrecoverable here.
func (s *Segment) faultIn() *segData {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if d := s.data.Load(); d != nil {
		return d
	}
	if s.load == nil {
		panic("store: segment demoted without a loader")
	}
	loaded, err := s.load()
	if err != nil {
		panic(fmt.Sprintf("store: segment %q fault failed: %v", s.id, err))
	}
	d := loaded.payload()
	if len(d.facts) != s.factCount || len(d.ents) != s.entCount {
		panic(fmt.Sprintf("store: segment %q fault returned %d facts / %d entities, want %d / %d",
			s.id, len(d.facts), len(d.ents), s.factCount, s.entCount))
	}
	s.data.Store(d)
	s.lastUse.Store(segClock.Add(1))
	return d
}

// AttachLoader arms the segment for demotion: load must rehydrate an
// equivalent resident segment (normally by reading the segment's blob
// back from disk). The persistence layer attaches loaders only after a
// segment's blob is durably written and verified.
func (s *Segment) AttachLoader(load func() (*Segment, error)) {
	s.loadMu.Lock()
	s.load = load
	s.loadMu.Unlock()
}

// Demote drops the resident payload of a loader-armed segment, returning
// the approximate bytes released (0 when the segment has no loader or is
// already demoted). Readers holding the old payload keep using it —
// payloads are immutable — and the next fresh access faults it back in.
func (s *Segment) Demote() int {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.load == nil {
		return 0
	}
	d := s.data.Load()
	if d == nil {
		return 0
	}
	s.data.Store(nil)
	return d.bytes
}

// Resident reports whether the segment's payload is currently in memory.
func (s *Segment) Resident() bool { return s.data.Load() != nil }

// MemBytes returns the approximate heap footprint of the resident
// payload (0 when demoted).
func (s *Segment) MemBytes() int {
	if d := s.data.Load(); d != nil {
		return d.bytes
	}
	return 0
}

// LastUse returns the global access tick of the segment's most recent
// payload access — the LRU ordering key for demotion policies.
func (s *Segment) LastUse() uint64 { return s.lastUse.Load() }

// NewDemotedSegment constructs a segment whose payload is not resident:
// metadata comes from the on-disk blob header, and the first access
// faults the full payload in through load. This is how a restart exposes
// a persisted corpus without reading any fact data up front.
func NewDemotedSegment(id string, docs int, buildTime time.Duration, factCount, entCount int, load func() (*Segment, error)) *Segment {
	return &Segment{
		id:        id,
		docs:      docs,
		buildTime: buildTime,
		factCount: factCount,
		entCount:  entCount,
		load:      load,
	}
}

// segDataBytes approximates a payload's heap footprint: string bytes plus
// fixed per-record overheads. It is a demotion-accounting estimate, not
// an exact measure.
func segDataBytes(d *segData) int {
	n := 0
	for i := range d.facts {
		f := &d.facts[i]
		n += 96 + len(f.Relation) + len(f.Pattern) + len(f.Subject.EntityID) + len(f.Subject.Literal) + len(f.Source.DocID)
		for _, o := range f.Objects {
			n += 40 + len(o.EntityID) + len(o.Literal)
		}
	}
	for _, k := range d.keys {
		n += 16 + len(k)
	}
	n += 4 * len(d.sorted)
	for _, k := range d.posKeys {
		n += 16 + len(k)
	}
	n += 8 * len(d.posFact) // posFact + posOrd
	n += 4 * len(d.entSorted)
	for i := range d.ents {
		e := &d.ents[i]
		n += 80 + len(e.ID) + len(e.Name)
		for _, m := range e.Mentions {
			n += 16 + len(m)
		}
		for _, t := range e.Types {
			n += 16 + len(t)
		}
	}
	return n
}

// seal finalizes a payload into the segment: counts and footprint are
// derived, and the payload pointer published.
func (s *Segment) seal(d *segData) *Segment {
	d.bytes = segDataBytes(d)
	s.factCount = len(d.facts)
	s.entCount = len(d.ents)
	s.data.Store(d)
	return s
}

// SealSegment freezes a KB shard into an immutable Segment. The shard's
// facts, dedup keys and entity records are deep-copied, so the source KB
// can keep being mutated (or discarded) afterwards. id is the segment's
// cache identity ("" = uncacheable).
func SealSegment(kb *KB, id string) *Segment {
	d := &segData{
		facts:  make([]Fact, len(kb.facts)),
		keys:   make([]string, len(kb.facts)),
		sorted: make([]int32, len(kb.facts)),
		ents:   make([]EntityRecord, 0, len(kb.order)),
	}
	for i := range kb.facts {
		f := kb.facts[i]
		f.Objects = append([]Value(nil), f.Objects...)
		d.facts[i] = f
	}
	// The shard's byKey index already holds every fact's dedup key.
	for k, i := range kb.byKey {
		d.keys[i] = k
	}
	for i := range d.sorted {
		d.sorted[i] = int32(i)
	}
	sort.Slice(d.sorted, func(a, b int) bool { return d.keys[d.sorted[a]] < d.keys[d.sorted[b]] })
	d.buildPOS()
	for _, eid := range kb.order {
		d.ents = append(d.ents, copyEntity(kb.entities[eid]))
	}
	d.buildEntIndex()
	return (&Segment{id: id, docs: 1}).seal(d)
}

// copyEntity returns a deep copy of an entity record.
func copyEntity(e *EntityRecord) EntityRecord {
	cp := *e
	cp.Mentions = append([]string(nil), e.Mentions...)
	cp.Types = append([]string(nil), e.Types...)
	return cp
}

// unionEntity folds src's mentions and types into dst, keeping
// first-seen order — how two records of one entity combine when segments
// merge or runs materialize.
func unionEntity(dst, src *EntityRecord) {
	for _, m := range src.Mentions {
		if !contains(dst.Mentions, m) {
			dst.Mentions = append(dst.Mentions, m)
		}
	}
	for _, t := range src.Types {
		if !contains(dst.Types, t) {
			dst.Types = append(dst.Types, t)
		}
	}
}

// ID returns the segment's cache identity ("" when uncacheable).
func (s *Segment) ID() string { return s.id }

// Docs returns the number of document shards folded into the segment.
func (s *Segment) Docs() int { return s.docs }

// Len returns the number of (deduplicated) facts in the segment. It is
// metadata: calling it never faults a demoted payload back in.
func (s *Segment) Len() int { return s.factCount }

// BuildTime returns the accumulated pipeline time behind the segment.
func (s *Segment) BuildTime() time.Duration { return s.buildTime }

// SetBuildTime stamps the pipeline cost the segment represents. It is the
// one post-seal mutation allowed, intended for the builder that sealed
// the segment before sharing it; the stamp only feeds saved-time
// accounting, never content.
func (s *Segment) SetBuildTime(d time.Duration) { s.buildTime = d }

// Lookup returns the fact stored under a dedup key, if any. The returned
// pointer aliases the segment's immutable storage — read-only.
func (s *Segment) Lookup(key string) (*Fact, bool) {
	d := s.payload()
	i := sort.Search(len(d.sorted), func(i int) bool { return d.keys[d.sorted[i]] >= key })
	if i < len(d.sorted) && d.keys[d.sorted[i]] == key {
		return &d.facts[d.sorted[i]], true
	}
	return nil, false
}

// Keys returns the segment's dedup keys in fact order. The slice is the
// segment's immutable storage — read-only.
func (s *Segment) Keys() []string { return s.payload().keys }

// Entities returns the segment's entity records in first-seen order. The
// slice is the segment's immutable storage — read-only.
func (s *Segment) Entities() []EntityRecord { return s.payload().ents }

// MergeFunc merges two adjacent segments (older left). The serving layer
// substitutes a caching implementation so partial merges are shared
// across sessions and queries; MergeSegments is the plain default.
type MergeFunc func(a, b *Segment) *Segment

// MergeSegments merges two segments, a older than b, into a new immutable
// segment. Duplicate fact keys resolve exactly like KB.AddFact: the
// higher confidence wins and a tie breaks toward the lexicographically
// smaller provenance, with the surviving record keeping the first
// occurrence's position (and its Relation/Objects spelling — only
// Confidence, Source and Pattern travel with the winner). The join runs
// over the precomputed sorted key indices, so the cost is linear in the
// two segments' sizes with no map probing.
func MergeSegments(a, b *Segment) *Segment {
	ad, bd := a.payload(), b.payload()
	out := &segData{
		facts:  make([]Fact, len(ad.facts), len(ad.facts)+len(bd.facts)),
		keys:   make([]string, len(ad.facts), len(ad.facts)+len(bd.facts)),
		sorted: make([]int32, 0, len(ad.facts)+len(bd.facts)),
	}
	for i := range ad.facts {
		f := ad.facts[i]
		f.Objects = append([]Value(nil), f.Objects...)
		out.facts[i] = f
	}
	copy(out.keys, ad.keys)

	// One pass over both sorted key sequences: duplicates resolve in
	// place at a's position, novel b facts are appended afterwards in
	// their first-occurrence (b slice) order; the merged sorted index
	// falls out of the same walk.
	novel := make([]int32, 0, len(bd.facts)) // b fact index -> out fact index, filled below
	bOut := make([]int32, len(bd.facts))     // out index per b fact (novel or dup target)
	ai, bi := 0, 0
	for ai < len(ad.sorted) && bi < len(bd.sorted) {
		ak, bk := ad.keys[ad.sorted[ai]], bd.keys[bd.sorted[bi]]
		switch {
		case ak < bk:
			out.sorted = append(out.sorted, ad.sorted[ai])
			ai++
		case ak > bk:
			bOut[bd.sorted[bi]] = -1 // novel; out index assigned in append pass
			bi++
		default:
			i, j := ad.sorted[ai], bd.sorted[bi]
			keepWinner(&out.facts[i], &bd.facts[j])
			bOut[j] = i
			out.sorted = append(out.sorted, i)
			ai++
			bi++
		}
	}
	for ; ai < len(ad.sorted); ai++ {
		out.sorted = append(out.sorted, ad.sorted[ai])
	}
	for ; bi < len(bd.sorted); bi++ {
		bOut[bd.sorted[bi]] = -1
	}
	// Append b's novel facts in their original order, then splice their
	// out indices into the sorted walk (the sorted positions of novel
	// keys are already known from the join: re-walk is O(n) and simpler
	// than tracking splice points).
	for j := range bd.facts {
		if bOut[j] != -1 {
			continue
		}
		f := bd.facts[j]
		f.Objects = append([]Value(nil), f.Objects...)
		bOut[j] = int32(len(out.facts))
		out.facts = append(out.facts, f)
		out.keys = append(out.keys, bd.keys[j])
		novel = append(novel, int32(j))
	}
	if len(novel) > 0 {
		// Rebuild the sorted index by merging the existing sorted walk
		// (which covers a's facts) with the sorted novel keys.
		sort.Slice(novel, func(x, y int) bool { return bd.keys[novel[x]] < bd.keys[novel[y]] })
		merged := make([]int32, 0, len(out.facts))
		si, ni := 0, 0
		for si < len(out.sorted) && ni < len(novel) {
			if out.keys[out.sorted[si]] <= bd.keys[novel[ni]] {
				merged = append(merged, out.sorted[si])
				si++
			} else {
				merged = append(merged, bOut[novel[ni]])
				ni++
			}
		}
		merged = append(merged, out.sorted[si:]...)
		for ; ni < len(novel); ni++ {
			merged = append(merged, bOut[novel[ni]])
		}
		out.sorted = merged
	}

	// POS index: a's entries keep their fact positions and key strings
	// verbatim (winner upgrades never change a key); b's entries for
	// duplicate facts drop — their POS keys are identical to the a-side
	// fact's, relation and object keys being case-normalized — and novel
	// entries remap through bOut. The two sorted lists merge linearly,
	// sharing key storage with the inputs.
	apk, apf, apo := ad.posKeys, ad.posFact, ad.posOrd
	bpk, bpf, bpo := bd.posKeys, bd.posFact, bd.posOrd
	out.posKeys = make([]string, 0, len(apk)+len(bpk))
	out.posFact = make([]int32, 0, len(apk)+len(bpk))
	out.posOrd = make([]int32, 0, len(apk)+len(bpk))
	for pi, pj := 0, 0; pi < len(apk) || pj < len(bpk); {
		if pj < len(bpk) && bOut[bpf[pj]] < int32(len(ad.facts)) {
			pj++ // duplicate fact: a's identical entry already covers it
			continue
		}
		if pj == len(bpk) || (pi < len(apk) && apk[pi] <= bpk[pj]) {
			out.posKeys = append(out.posKeys, apk[pi])
			out.posFact = append(out.posFact, apf[pi])
			out.posOrd = append(out.posOrd, apo[pi])
			pi++
		} else {
			out.posKeys = append(out.posKeys, bpk[pj])
			out.posFact = append(out.posFact, bOut[bpf[pj]])
			out.posOrd = append(out.posOrd, bpo[pj])
			pj++
		}
	}

	// Entities: a's records first (deep copies), b's unioned in with
	// first-seen mention/type order preserved — AddEntity semantics. A b
	// record finds a's through a's ID index; the merged index
	// interleaves a's with the novel b records' (already in ID order in
	// b's index).
	out.ents = make([]EntityRecord, len(ad.ents), len(ad.ents)+len(bd.ents))
	for i := range ad.ents {
		out.ents[i] = copyEntity(&ad.ents[i])
	}
	bEnt := make([]int32, len(bd.ents)) // out index per b record
	for j := range bd.ents {
		if i := ad.entity(bd.ents[j].ID); i >= 0 {
			unionEntity(&out.ents[i], &bd.ents[j])
			bEnt[j] = int32(i)
			continue
		}
		bEnt[j] = int32(len(out.ents))
		out.ents = append(out.ents, copyEntity(&bd.ents[j]))
	}
	out.entSorted = make([]int32, 0, len(out.ents))
	ai = 0
	for _, j := range bd.entSorted {
		if bEnt[j] < int32(len(ad.ents)) {
			continue // unioned into a's record, already indexed
		}
		for ai < len(ad.entSorted) && ad.ents[ad.entSorted[ai]].ID < bd.ents[j].ID {
			out.entSorted = append(out.entSorted, ad.entSorted[ai])
			ai++
		}
		out.entSorted = append(out.entSorted, bEnt[j])
	}
	out.entSorted = append(out.entSorted, ad.entSorted[ai:]...)
	m := (&Segment{
		id:        combineSegmentIDs(a.id, b.id),
		docs:      a.docs + b.docs,
		buildTime: a.buildTime + b.buildTime,
	}).seal(out)
	// A merged segment is born demotable: it can always rehydrate by
	// re-merging its inputs, which fault themselves back recursively —
	// intermediate merges re-merge their own children, leaves reload from
	// their blobs. Merging is deterministic in content and layout, so the
	// rebuilt payload is identical to the dropped one. This is why the
	// persistence layer only ever writes *leaf* blobs.
	m.load = func() (*Segment, error) { return MergeSegments(a, b), nil }
	return m
}

// LazyMergeSegments returns the merge of a and b as a born-demoted
// segment: identity metadata travels from the inputs as usual, but the
// merged payload is built by the self-heal loader on first access
// instead of eagerly. factCount and entCount must be the exact counts
// MergeSegments(a, b) would produce — faultIn verifies them — so callers
// derive them from the inputs' key and entity-ID sets (see
// RestoreMergeFunc). Merging is deterministic in content and layout, so
// the deferred payload is identical to the eager one.
func LazyMergeSegments(a, b *Segment, factCount, entCount int) *Segment {
	return NewDemotedSegment(
		combineSegmentIDs(a.id, b.id),
		a.docs+b.docs,
		a.buildTime+b.buildTime,
		factCount, entCount,
		func() (*Segment, error) { return MergeSegments(a, b), nil },
	)
}

// restoreAux is the side state RestoreMergeFunc threads up a replayed
// tree: a segment's sorted dedup-key and entity-ID sets, enough to
// compute the exact fact/entity counts of a merge without building its
// payload.
type restoreAux struct {
	keys []string // sorted, unique
	ents []string // sorted, unique
}

func auxFromPayload(d *segData) *restoreAux {
	keys := make([]string, len(d.sorted))
	for i, j := range d.sorted {
		keys[i] = d.keys[j]
	}
	ents := make([]string, len(d.ents))
	for i := range d.ents {
		ents[i] = d.ents[i].ID
	}
	sort.Strings(ents)
	return &restoreAux{keys: keys, ents: ents}
}

// mergeSortedUnique unions two sorted unique string slices.
func mergeSortedUnique(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// RestoreMergeFunc returns a MergeFunc for replaying a persisted session
// into a merge tree at restart: every compaction defers its payload (see
// LazyMergeSegments), so rebuilding a W-document tree is O(W) set walks
// and pointer work instead of O(W log W) fact-copying merges. Payloads
// materialize on first access — a query fold, Materialize, or the boot
// fingerprint check — and are byte-identical to eager merges. A demoted
// input whose key set is unavailable (a memory-budget boot) falls back
// to the eager MergeSegments, which would fault it in regardless.
//
// The returned function keeps per-segment state and is not safe for
// concurrent use; replay pushes are single-threaded.
func RestoreMergeFunc() MergeFunc {
	aux := make(map[*Segment]*restoreAux)
	get := func(s *Segment) *restoreAux {
		if x, ok := aux[s]; ok {
			return x
		}
		if d := s.data.Load(); d != nil {
			x := auxFromPayload(d)
			aux[s] = x
			return x
		}
		return nil
	}
	return func(a, b *Segment) *Segment {
		ax, bx := get(a), get(b)
		if ax == nil || bx == nil {
			return MergeSegments(a, b)
		}
		keys := mergeSortedUnique(ax.keys, bx.keys)
		ents := mergeSortedUnique(ax.ents, bx.ents)
		m := LazyMergeSegments(a, b, len(keys), len(ents))
		aux[m] = &restoreAux{keys: keys, ents: ents}
		return m
	}
}

// CombinedSegmentID returns the cache identity MergeSegments(a, b) would
// stamp on its result ("" when either input is uncacheable) — what a
// caching MergeFunc keys its lookups by before paying for the merge.
func CombinedSegmentID(a, b *Segment) string { return combineSegmentIDs(a.id, b.id) }

// combineSegmentIDs derives a merged segment's cache identity from its
// inputs. Either input being uncacheable poisons the merge; long
// identities collapse to a fixed-size content hash so deep merge trees
// keep O(1)-sized keys.
func combineSegmentIDs(a, b string) string {
	if a == "" || b == "" {
		return ""
	}
	id := a + "\x01" + b
	if len(id) <= 128 {
		return id
	}
	h := fnv.New128a()
	h.Write([]byte(id))
	return "h\x02" + string(h.Sum(nil))
}

// MergeSegment folds a segment into the KB — the materialization step of
// the segmented store, equivalent to Merge with a KB holding the same
// content. Object slices are copied; the segment stays immutable.
func (kb *KB) MergeSegment(s *Segment) {
	d := s.payload()
	if n := len(d.ents); n > 0 {
		kb.order = slices.Grow(kb.order, n)
	}
	if n := len(d.facts); n > 0 {
		kb.facts = slices.Grow(kb.facts, n)
	}
	for i := range d.ents {
		kb.AddEntity(d.ents[i])
	}
	for i := range d.facts {
		f := d.facts[i]
		f.Objects = append(make([]Value, 0, len(f.Objects)), f.Objects...)
		kb.AddFact(f)
	}
}

// MaterializeRuns merges an ordered sequence of segments (oldest first)
// into a flat KB. Over the runs of a session's merge tree this
// reproduces, fact for fact and ID for ID, the KB a one-shot
// document-order Merge over the underlying shards would have built.
func MaterializeRuns(runs []*Segment) *KB {
	kb := New()
	total := 0
	for _, s := range runs {
		if s != nil {
			total += s.factCount
		}
	}
	kb.facts = make([]Fact, 0, total)
	for _, s := range runs {
		if s != nil {
			kb.MergeSegment(s)
		}
	}
	return kb
}
