// Prefix-scan iterators over the segmented store: the read-path
// counterpart of segment.go's merge machinery. A Segment's sorted key
// index is an EAVT-style covering index — dedup keys start with the
// subject's value key, then the lowered relation, then the object value
// keys — so any query that binds a key prefix (a subject, or a subject
// plus relation) resolves to one binary-searched contiguous range per
// run. A second sorted index in POS order (relation, then object value
// key, then the full dedup key — see appendPOSKey) gives clauses with an
// unbound subject the same contiguous-range treatment: a bound predicate
// (optionally narrowed by a bound object) pins one POS range per run
// instead of scanning the world. A TreeCursor merges per-run ranges of
// either index k-way in key order and resolves cross-run duplicates to
// the exact record the materialized KB would hold, which is what lets
// the query engine (internal/query) stream pattern matches straight off
// the runs with no Materialize() on the path.
package store

import (
	"sort"

	"qkbfly/internal/intern"
)

// ValueKey returns the canonical index key of a value — "e:<id>" for
// entity references, "l:<lowered literal>" for literals — the exact form
// dedup keys are assembled from. Query planners build scan prefixes out
// of these.
func ValueKey(v Value) string { return string(appendValueKey(nil, v)) }

// RelKey returns a relation as it appears inside dedup keys (lowered).
func RelKey(rel string) string { return intern.Lower(rel) }

// prefixEnd returns the smallest string greater than every string with
// the given prefix, or "" when no such bound exists (all-0xff prefix —
// the scan runs to the end of the index).
func prefixEnd(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string(prefix[i]+1)
		}
	}
	return ""
}

// prefixRange binary-searches a payload's sorted key index for the
// half-open position range [lo, hi) of keys starting with prefix.
func (d *segData) prefixRange(prefix string) (lo, hi int) {
	lo = sort.Search(len(d.sorted), func(i int) bool { return d.keys[d.sorted[i]] >= prefix })
	if end := prefixEnd(prefix); end != "" {
		hi = lo + sort.Search(len(d.sorted)-lo, func(i int) bool { return d.keys[d.sorted[lo+i]] >= end })
	} else {
		hi = len(d.sorted)
	}
	return lo, hi
}

// POSPrefix assembles a POS-index scan prefix from an already-lowered
// relation key (RelKey) and an optional object value key (ValueKey; ""
// selects the whole relation). The "|" terminators pin the relation —
// and, when given, the object value — exactly, the way the dedup-key
// prefixes ValueKey/RelKey callers assemble pin a subject.
func POSPrefix(relKey, objKey string) string {
	if objKey == "" {
		return relKey + "|"
	}
	return relKey + "|" + objKey + "|"
}

// SegmentCursor streams one segment's facts in index-key order over a
// key-prefix range of either sorted index (EAVT via ScanPrefix, POS via
// ScanPOSPrefix). Returned fact pointers alias the segment's immutable
// storage — read-only, like Segment.Lookup. The cursor pins the payload
// it was opened over, so a concurrent demotion never invalidates it.
type SegmentCursor struct {
	data *segData
	// fi maps cursor positions to fact indices; ks, when non-nil, holds
	// the index key per position (the positional POS index). A nil ks
	// means keys come from the primary index (data.keys[fi[pos]]).
	ks       []string
	fi       []int32
	pos, end int
}

// ScanPrefix returns a cursor over the segment's facts whose dedup key
// starts with prefix ("" scans the whole segment), in key order.
func (s *Segment) ScanPrefix(prefix string) *SegmentCursor {
	d := s.payload()
	lo, hi := d.prefixRange(prefix)
	return &SegmentCursor{data: d, fi: d.sorted, pos: lo, end: hi}
}

// ScanPOSPrefix returns a cursor over the segment's POS index entries
// whose key starts with prefix, in POS-key order. A fact yields once per
// distinct object value matching the prefix (facts without objects carry
// a single zero-object entry), so a relation-wide scan may yield one
// fact several times under distinct keys.
func (s *Segment) ScanPOSPrefix(prefix string) *SegmentCursor {
	d := s.payload()
	ks, fi, lo, hi := d.posRange(prefix)
	return &SegmentCursor{data: d, ks: ks, fi: fi, pos: lo, end: hi}
}

// posRange binary-searches the POS index for the half-open positional
// range of entries whose key starts with prefix.
func (d *segData) posRange(prefix string) (ks []string, fi []int32, lo, hi int) {
	ks, fi = d.posKeys, d.posFact
	lo = sort.Search(len(ks), func(i int) bool { return ks[i] >= prefix })
	if end := prefixEnd(prefix); end != "" {
		hi = lo + sort.Search(len(ks)-lo, func(i int) bool { return ks[lo+i] >= end })
	} else {
		hi = len(ks)
	}
	return ks, fi, lo, hi
}

// Remaining returns how many facts the cursor has left to yield.
func (c *SegmentCursor) Remaining() int { return c.end - c.pos }

// Next yields the next (key, fact) in key order, or ok=false when the
// range is exhausted.
func (c *SegmentCursor) Next() (key string, f *Fact, ok bool) {
	if c.pos >= c.end {
		return "", nil, false
	}
	i := c.fi[c.pos]
	if c.ks != nil {
		key = c.ks[c.pos]
	} else {
		key = c.data.keys[i]
	}
	c.pos++
	return key, &c.data.facts[i], true
}

// EstimatePrefix returns the number of facts across the tree's runs whose
// key starts with prefix — an upper bound on the distinct keys in the
// range (cross-run duplicates collapse), computed by binary search alone.
// This is the statistics-free selectivity estimate the query planner
// orders clauses by.
func (t *Tree) EstimatePrefix(prefix string) int {
	n := 0
	for _, r := range t.runs {
		lo, hi := r.seg.payload().prefixRange(prefix)
		n += hi - lo
	}
	return n
}

// EstimatePOSPrefix is EstimatePrefix over the POS index: the exact
// per-run count of POS entries (facts × matching object values) under
// the prefix, summed across runs. The planner compares it against the
// EAVT estimate to cost the two access paths per clause.
func (t *Tree) EstimatePOSPrefix(prefix string) int {
	n := 0
	for _, r := range t.runs {
		_, _, lo, hi := r.seg.payload().posRange(prefix)
		n += hi - lo
	}
	return n
}

// TreeCursor streams the winning fact per dedup key across all of a
// tree's runs, in key order, over a key-prefix range. Each yielded fact
// is exactly the record the materialized KB holds for that key: the
// oldest run's occurrence supplies the spelling (Relation, Objects,
// Subject), and Confidence, Source and Pattern come from folding the
// newer runs' records under the AddFact winner rule (higher confidence,
// then smaller provenance). Fact IDs are -1 — IDs are local to one
// materialized KB (see Delta) — and Objects alias immutable segment
// storage, so yielded facts are read-only.
type TreeCursor struct {
	runs []*SegmentCursor
	// cur holds each run's current (key, fact); valid[i] is false once
	// run i is exhausted.
	keys  []string
	facts []*Fact
	valid []bool
}

// ScanPrefix returns a merged cursor over the winning facts of every
// dedup key starting with prefix ("" scans the whole tree), in key
// order. The k-way merge walks the O(log W) runs' binary-searched ranges
// directly — no materialization, no map building.
func (t *Tree) ScanPrefix(prefix string) *TreeCursor {
	return t.mergedScan(func(s *Segment) *SegmentCursor { return s.ScanPrefix(prefix) })
}

// ScanPOSPrefix returns a merged cursor over the tree's POS index under
// a POS-key prefix (see POSPrefix), with the same cross-run winner
// folding as ScanPrefix: equal POS keys embed equal dedup keys, so
// duplicates across runs fold to exactly the record the materialized KB
// holds. A fact with several matching object values yields once per
// value, under distinct keys.
func (t *Tree) ScanPOSPrefix(prefix string) *TreeCursor {
	return t.mergedScan(func(s *Segment) *SegmentCursor { return s.ScanPOSPrefix(prefix) })
}

// mergedScan opens one per-run cursor via open and wires the k-way merge.
func (t *Tree) mergedScan(open func(*Segment) *SegmentCursor) *TreeCursor {
	c := &TreeCursor{
		runs:  make([]*SegmentCursor, len(t.runs)),
		keys:  make([]string, len(t.runs)),
		facts: make([]*Fact, len(t.runs)),
		valid: make([]bool, len(t.runs)),
	}
	for i, r := range t.runs {
		c.runs[i] = open(r.seg)
		c.advance(i)
	}
	return c
}

// advance pulls run i's next entry into the cursor head.
func (c *TreeCursor) advance(i int) {
	c.keys[i], c.facts[i], c.valid[i] = c.runs[i].Next()
}

// head returns the oldest run whose cursor holds the smallest pending
// key, or -1 when every run is exhausted.
func (c *TreeCursor) head() int {
	min := -1
	for i := range c.runs {
		if c.valid[i] && (min < 0 || c.keys[i] < c.keys[min]) {
			min = i
		}
	}
	return min
}

// Next yields the next key's winning fact, or ok=false at the end of the
// range. Runs are few (O(log W)), so the per-step minimum is a linear
// scan over the cursor heads.
func (c *TreeCursor) Next() (key string, f Fact, ok bool) {
	min := c.head()
	if min < 0 {
		return "", Fact{}, false
	}
	key = c.keys[min]
	// The oldest run holding the key supplies the base record (first
	// occurrence — its spelling survives materialization); newer runs
	// fold in under the winner rule and their cursors advance past the
	// shared key.
	f = *c.facts[min]
	f.ID = -1
	c.advance(min)
	for i := min + 1; i < len(c.runs); i++ {
		if !c.valid[i] || c.keys[i] != key {
			continue
		}
		keepWinner(&f, c.facts[i])
		c.advance(i)
	}
	return key, f, true
}

// ContentID returns a compact structural identity for the tree's
// content: the fold of its runs' segment identities, exactly the
// identity MergeSegments would stamp on their full merge. Two trees with
// equal ContentID materialize to byte-identical KBs, so immutable
// snapshot results (query answers, plans) can be cached under it without
// ever materializing. "" means uncacheable — some run contains an
// anonymous (identity-less) segment. The empty tree has a fixed
// non-empty identity.
func (t *Tree) ContentID() string {
	if len(t.runs) == 0 {
		return "\x00empty"
	}
	id := t.runs[0].seg.id
	for _, r := range t.runs[1:] {
		id = combineSegmentIDs(id, r.seg.id)
		if id == "" {
			return ""
		}
	}
	if id == "" {
		return ""
	}
	return id
}
