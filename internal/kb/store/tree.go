// The merge tree: a log-structured, persistent arrangement of segments
// that makes sliding-window ingestion amortized O(log W) instead of the
// O(W) flat re-merge a monolithic KB forces.
//
// A Tree is an ordered sequence of *runs* (partial merges) over the live
// per-document segments, oldest first. Appending a document pushes a
// fresh leaf run and then compacts the tail LSM-style — two adjacent
// runs of equal leaf count merge into their parent — so a window of W
// documents is always covered by O(log W) runs and the merge work per
// push amortizes to O(log W) segment-sized joins. Evicting a document
// never re-merges anything: the run containing it is *split* back into
// the retained children along the path to that leaf (O(log W) pointer
// work), re-exposing already-computed partial merges as runs.
//
// Trees are persistent: Push and Remove return a new Tree sharing every
// unchanged node with the old one, so a session can publish each version
// as an immutable snapshot with structural sharing instead of deep
// copies. Because segment merging is associative in content and layout
// (see segment.go), materializing any tree over live segments yields
// exactly the flat document-order merge of those segments.
package store

import "sort"

// treeNode is one run of the merge tree. Leaves hold a single document's
// segment; internal nodes hold the merge of their two children and
// retain the children so eviction can split instead of re-merge.
type treeNode struct {
	seg    *Segment
	lo, hi uint64 // arrival-sequence span (inclusive); gaps may be dead
	leaves int    // live leaf count — the LSM merge weight
	left   *treeNode
	right  *treeNode
}

// Tree is a persistent merge tree over live document segments. The zero
// value is empty and usable; all methods are read-only on the receiver
// and return derived trees, so a *Tree (and every snapshot holding one)
// is safe for concurrent readers without synchronization.
type Tree struct {
	runs  []*treeNode // oldest first; spans are disjoint and ascending
	merge MergeFunc   // nil = MergeSegments
}

// NewTree returns an empty merge tree whose compactions use merge (nil
// means the plain MergeSegments). A caching MergeFunc is how the serving
// layer shares partial merges across sessions and queries.
func NewTree(merge MergeFunc) *Tree { return &Tree{merge: merge} }

// mergeFn resolves the tree's merge function.
func (t *Tree) mergeFn() MergeFunc {
	if t.merge != nil {
		return t.merge
	}
	return MergeSegments
}

// WithMergeFunc returns a tree over the same runs whose future
// compactions use merge (nil = MergeSegments). Session restore replays
// leaves through a deferred-merge function and then rebinds the normal
// (possibly caching) merge for subsequent pushes.
func (t *Tree) WithMergeFunc(merge MergeFunc) *Tree {
	return &Tree{runs: t.runs, merge: merge}
}

// Len returns the number of live documents in the tree.
func (t *Tree) Len() int {
	n := 0
	for _, r := range t.runs {
		n += r.leaves
	}
	return n
}

// Runs returns the tree's current partial merges, oldest first.
func (t *Tree) Runs() []*Segment {
	out := make([]*Segment, len(t.runs))
	for i, r := range t.runs {
		out[i] = r.seg
	}
	return out
}

// AllSegments returns every distinct segment reachable from the tree's
// runs, including the retained children of partial merges (eviction can
// re-expose those as runs, so they stay resident until demoted). Each
// segment appears once. This is the candidate set a memory-budget
// demotion policy sweeps.
func (t *Tree) AllSegments() []*Segment {
	var out []*Segment
	seen := make(map[*Segment]bool)
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n == nil || seen[n.seg] {
			return
		}
		seen[n.seg] = true
		out = append(out, n.seg)
		walk(n.left)
		walk(n.right)
	}
	for _, r := range t.runs {
		walk(r)
	}
	return out
}

// FactCount returns the total fact count across runs — an upper bound on
// the materialized KB's Len (duplicate keys across runs collapse).
func (t *Tree) FactCount() int {
	n := 0
	for _, r := range t.runs {
		n += r.seg.factCount
	}
	return n
}

// Push appends a document segment as the newest leaf under arrival
// sequence seq (which must exceed every sequence already in the tree)
// and compacts the tail: while the two newest runs have equal leaf
// counts they merge into their parent. Returns the derived tree.
func (t *Tree) Push(seg *Segment, seq uint64) *Tree {
	runs := make([]*treeNode, len(t.runs), len(t.runs)+1)
	copy(runs, t.runs)
	runs = append(runs, &treeNode{seg: seg, lo: seq, hi: seq, leaves: 1})
	merge := t.mergeFn()
	for len(runs) >= 2 && runs[len(runs)-2].leaves == runs[len(runs)-1].leaves {
		a, b := runs[len(runs)-2], runs[len(runs)-1]
		runs = runs[:len(runs)-2]
		runs = append(runs, &treeNode{
			seg:    merge(a.seg, b.seg),
			lo:     a.lo,
			hi:     b.hi,
			leaves: a.leaves + b.leaves,
			left:   a,
			right:  b,
		})
	}
	return &Tree{runs: runs, merge: t.merge}
}

// Append pushes a document segment as the newest leaf under arrival
// sequence seq without compacting the tail — Push with the equal-weight
// merge loop deferred. The derived tree holds the same content (every
// read walks runs, so lookups, scans, diffs and eviction all work on
// loose trees; only their per-run constant grows), and a later Compact
// restores the LSM run-count invariant. Sessions use this so an
// ingest's critical section is pure pointer work, and compact the
// published tree off their lock.
func (t *Tree) Append(seg *Segment, seq uint64) *Tree {
	runs := make([]*treeNode, len(t.runs), len(t.runs)+1)
	copy(runs, t.runs)
	runs = append(runs, &treeNode{seg: seg, lo: seq, hi: seq, leaves: 1})
	return &Tree{runs: runs, merge: t.merge}
}

// RunCount returns the number of runs — the per-lookup fan-in, and the
// measure of how much compaction debt a loose tree carries.
func (t *Tree) RunCount() int { return len(t.runs) }

// Compact merges the tail-equal runs Append deferred, returning the
// derived tree and whether anything merged. It replays Push's
// equal-weight rule over the tree's runs: runs are re-pushed
// oldest-first onto a stack, and while the two newest stack entries
// have equal leaf counts they merge into their parent. For a tree built
// by Append over a Push-compacted prefix this reproduces exactly the run
// layout (the same runs over the same documents) that Push would have
// produced; after evictions, whose splits Push itself never re-merges
// mid-sequence, it may compact further. Either way the result
// materializes to the same KB — segment merging is associative in
// content and layout.
func (t *Tree) Compact() (compacted *Tree, changed bool) {
	if len(t.runs) < 2 {
		return t, false
	}
	merge := t.mergeFn()
	runs := make([]*treeNode, 0, len(t.runs))
	for _, r := range t.runs {
		runs = append(runs, r)
		for len(runs) >= 2 && runs[len(runs)-2].leaves == runs[len(runs)-1].leaves {
			a, b := runs[len(runs)-2], runs[len(runs)-1]
			runs = runs[:len(runs)-2]
			runs = append(runs, &treeNode{
				seg:    merge(a.seg, b.seg),
				lo:     a.lo,
				hi:     b.hi,
				leaves: a.leaves + b.leaves,
				left:   a,
				right:  b,
			})
			changed = true
		}
	}
	if !changed {
		return t, false
	}
	return &Tree{runs: runs, merge: t.merge}, true
}

// CompactionPreserves reports whether compacted, derived from t by
// Compact, holds the same content as t, at the cost of what the
// compaction merged rather than of the whole tree. The two run lists
// are walked together: a run compacted shares with t by pointer is
// skipped, and every other run must cover exactly a span of t's runs
// (same lo/hi bounds and leaf count) and match that span in Identity,
// fact count and entity count. A segment's own identity is hashed once
// and memoized, and a span's folds its runs' (see spanIdentity), so a
// check hashes the merged runs it has not seen before and little else.
//
// Runs fold oldest-first, so a tree's content is fixed by the content
// of the spans it is cut into: equal spans make equal trees. The check
// is therefore at least as strict as comparing whole-tree identities,
// and stricter where it matters — a span that differs is a broken merge
// even where a run outside it would hide the damage in the whole tree.
func (t *Tree) CompactionPreserves(compacted *Tree) bool {
	old, i := t.runs, 0
	for _, n := range compacted.runs {
		if i < len(old) && old[i] == n {
			i++
			continue
		}
		j, leaves := i, 0
		for j < len(old) && old[j].hi <= n.hi {
			leaves += old[j].leaves
			j++
		}
		if j == i || old[i].lo != n.lo || old[j-1].hi != n.hi || leaves != n.leaves {
			return false
		}
		if spanIdentity(old[i:j]) != n.seg.identity() {
			return false
		}
		i = j
	}
	return i == len(old)
}

// Remove evicts the leaf with arrival sequence seq. No merging happens:
// the run containing the leaf is split back into its retained children
// along the path to the leaf, re-exposing the sibling partial merges as
// runs in order. Returns the derived tree and whether seq was found.
func (t *Tree) Remove(seq uint64) (*Tree, bool) {
	for i, r := range t.runs {
		if r.lo > seq || seq > r.hi {
			continue
		}
		repl, ok := splitOut(r, seq)
		if !ok {
			return t, false // seq fell in a dead gap of this span
		}
		runs := make([]*treeNode, 0, len(t.runs)-1+len(repl))
		runs = append(runs, t.runs[:i]...)
		runs = append(runs, repl...)
		runs = append(runs, t.runs[i+1:]...)
		return &Tree{runs: runs, merge: t.merge}, true
	}
	return t, false
}

// splitOut removes the leaf with sequence seq from the subtree rooted at
// n, returning the ordered runs that replace n (the siblings along the
// path to the leaf).
func splitOut(n *treeNode, seq uint64) ([]*treeNode, bool) {
	if n.left == nil { // leaf
		if n.lo == seq {
			return nil, true
		}
		return nil, false
	}
	if seq <= n.left.hi {
		repl, ok := splitOut(n.left, seq)
		if !ok {
			return nil, false
		}
		return append(repl, n.right), true
	}
	repl, ok := splitOut(n.right, seq)
	if !ok {
		return nil, false
	}
	return append([]*treeNode{n.left}, repl...), true
}

// Lookup returns the fact the materialized KB holds under a dedup key:
// the oldest run's occurrence supplies the spelling (Subject, Relation,
// Objects), and Confidence, Source and Pattern come from the winner
// across runs under the KB.AddFact rule (higher confidence, then smaller
// provenance). The pointer aliases immutable segment storage when the
// oldest occurrence also wins, and is a private copy otherwise.
func (t *Tree) Lookup(key string) (*Fact, bool) {
	var w factWinner
	for _, r := range t.runs {
		if f, ok := r.seg.Lookup(key); ok {
			w.add(f)
		}
	}
	return w.result()
}

// factWinner folds one key's occurrences, oldest run first, into the
// record the materialized KB holds under it.
type factWinner struct{ first, win *Fact }

func (w *factWinner) add(f *Fact) {
	if w.win == nil {
		w.first, w.win = f, f
	} else if wins(f, w.win) {
		w.win = f
	}
}

func (w *factWinner) result() (*Fact, bool) {
	if w.win == w.first {
		return w.first, w.first != nil
	}
	cp := *w.first
	cp.Confidence, cp.Source, cp.Pattern = w.win.Confidence, w.win.Source, w.win.Pattern
	return &cp, true
}

// LookupEntity returns the merged entity record for id across the tree's
// runs (mention and type unions in first-seen order), as the
// materialized KB would hold it: one binary search of each run's entity
// index, O(R · log n) for R runs.
func (t *Tree) LookupEntity(id string) (EntityRecord, bool) {
	var u entityUnion
	for _, r := range t.runs {
		d := r.seg.payload()
		if i := d.entity(id); i >= 0 {
			u.add(&d.ents[i])
		}
	}
	return u.rec, u.found
}

// entityUnion folds one entity ID's records, oldest run first, into the
// merged record the materialized KB holds.
type entityUnion struct {
	rec   EntityRecord
	found bool
}

func (u *entityUnion) add(e *EntityRecord) {
	if !u.found {
		u.rec, u.found = copyEntity(e), true
	} else {
		unionEntity(&u.rec, e)
	}
}

// Materialize flattens the tree into a KB: the runs merge oldest-first,
// which reproduces the one-shot document-order merge of the underlying
// shards exactly (same facts, IDs, entities — see segment.go).
func (t *Tree) Materialize() *KB {
	return MaterializeRuns(t.Runs())
}

// candidateKeys collects the distinct fact keys of the given segments in
// sorted order — the only keys whose winning record can differ between
// two trees that differ by exactly those segments.
func candidateKeys(segs []*Segment) []string {
	seen := make(map[string]struct{})
	var keys []string
	for _, s := range segs {
		for _, k := range s.payload().keys {
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// candidateEntities collects the distinct entity IDs of the given
// segments in sorted order.
func candidateEntities(segs []*Segment) []string {
	seen := make(map[string]struct{})
	var ids []string
	for _, s := range segs {
		ents := s.payload().ents
		for i := range ents {
			id := ents[i].ID
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}
