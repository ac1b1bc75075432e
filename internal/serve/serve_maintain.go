package serve

import (
	"context"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
)

// Delta maintenance for the pattern result cache. Dropping every cached
// answer whenever the content identity moves makes standing queries pay
// a full re-evaluation per ingest, even when the delta touched nothing
// they bind. Instead, each published store.Delta rolls the previous
// version's entries forward:
//
//   - rows citing no changed fact stay valid verbatim — winner facts are
//     keyed records, and the delta is the complete set of keys whose
//     winner changed (Upgraded includes in-place downgrades);
//   - rows citing a changed fact are re-verified with query.Verify,
//     which re-runs the pattern under the row's full binding assignment
//     (alternate support may keep the row alive, and surviving rows get
//     their evidence refreshed to current winners);
//   - answers that only exist in the new version must cite at least one
//     Added or Upgraded fact — removals cannot create support — so
//     query.EvalDelta seeded from the delta finds all of them.
//
// The maintained answer is row-set identical (by query.Row.Key) to a
// recomputation, though row order may differ. Work is budgeted: deltas
// touching more than maintainChangedBudget facts, or entries with more
// than maintainAffectedBudget rows to re-verify, fall back to dropping
// the entry (the next QueryPattern recomputes on miss). Limit-capped
// patterns always fall back — a truncated answer set is not maintainable
// row-by-row, because an incumbent row's death may admit a row the
// cached truncation never saw.

const (
	// maintainChangedBudget caps the delta size (facts added, upgraded
	// or removed) maintenance will process; larger deltas invalidate
	// instead, since EvalDelta's seeded re-evaluation grows with it.
	maintainChangedBudget = 512
	// maintainAffectedBudget caps re-verified rows per cached entry; an
	// entry where the delta touches more rows than this recomputes.
	maintainAffectedBudget = 128
)

// MaintainPatterns follows the session's Feed from its current snapshot
// and rolls the pattern cache forward on every published version. The returned stop
// function cancels the subscription and waits for the loop to drain.
// If the feed closes early — session closed, or the subscriber lagged
// past its buffer — maintenance stops and the cache degrades to
// recompute-on-miss; it does not resubscribe, because versions missed
// while lagging cannot be rolled over.
func (s *Server) MaintainPatterns(ctx context.Context, sess *qkbfly.Session) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	feed := sess.Feed(ctx, qkbfly.FeedStart{Snapshot: true, Tail: true, Drops: qkbfly.CounterDeltaWatchDrops})
	prev := feed.Reset.Identity()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range feed.Tail {
			s.rollPatternCache(prev, ev.Snap, ev.Delta)
			prev = ev.Snap.Identity()
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// RollPatternCache advances every cached pattern answer from the
// version whose Snapshot.ContentID is oldCID to snap, whose content
// differs from its predecessor by d. Entries that roll within budget
// are re-inserted under the new content identity (counted as
// pattern_maintained); entries past budget, or with a row limit, are
// dropped and recompute on their next miss (pattern_maintain_fallbacks).
// Exported so the bench harness can drive maintenance synchronously;
// the serving path uses it only through MaintainPatterns. An oldCID
// that is not a ContentID names no cached version and rolls nothing.
func (s *Server) RollPatternCache(oldCID string, snap *qkbfly.Snapshot, d store.Delta) {
	if old, err := store.ParseIdentity(oldCID); err == nil {
		s.rollPatternCache(old, snap, d)
	}
}

// rollPatternCache is RollPatternCache from the old version's identity.
// A version that leaves the identity unchanged leaves every entry valid
// where it is.
func (s *Server) rollPatternCache(old store.Identity, snap *qkbfly.Snapshot, d store.Delta) {
	cur := snap.Identity()
	if cur == old {
		return
	}
	// Entries leave the cache either way: maintained ones re-enter under
	// the new identity, the rest recompute on miss.
	entries := s.patterns.take(func(k patternKey) bool { return k.id == old })
	if len(entries) == 0 {
		return
	}
	if len(d.Added)+len(d.Upgraded)+len(d.Removed) > maintainChangedBudget {
		s.counters.Add(CounterPatternMaintainFallbacks, int64(len(entries)))
		return
	}
	changed := make(map[string]bool, len(d.Upgraded)+len(d.Removed))
	for i := range d.Upgraded {
		changed[store.FactKey(&d.Upgraded[i])] = true
	}
	for i := range d.Removed {
		changed[store.FactKey(&d.Removed[i])] = true
	}
	tree := snap.Tree()
	for _, e := range entries {
		if e.pat.Limit > 0 {
			s.counters.Add(CounterPatternMaintainFallbacks, 1)
			continue
		}
		rows, ok := rollRows(tree, e, d, changed)
		if !ok {
			s.counters.Add(CounterPatternMaintainFallbacks, 1)
			continue
		}
		s.patterns.put(patternKey{cur, e.canon}, &patternEntry{pat: e.pat, canon: e.canon, rows: rows})
		s.counters.Add(CounterPatternMaintained, 1)
	}
}

// rollRows computes the entry's answer set on the new tree from its old
// rows and the delta: unaffected rows carry over, affected rows
// re-verify under their bindings, and delta evaluation contributes the
// rows the change created. Returns ok=false when re-verification would
// exceed maintainAffectedBudget.
func rollRows(t *store.Tree, e *patternEntry, d store.Delta, changed map[string]bool) ([]query.Row, bool) {
	out := make([]query.Row, 0, len(e.rows))
	seen := make(map[string]bool, len(e.rows))
	affected := 0
	for _, r := range e.rows {
		if !rowTouches(r, changed) {
			out = append(out, r)
			seen[r.Key()] = true
			continue
		}
		if affected++; affected > maintainAffectedBudget {
			return nil, false
		}
		if nr, ok := query.Verify(t, e.pat, r.Bindings); ok && !seen[nr.Key()] {
			out = append(out, nr)
			seen[nr.Key()] = true
		}
	}
	for _, nr := range query.EvalDelta(t, e.pat, d) {
		if !seen[nr.Key()] {
			out = append(out, nr)
			seen[nr.Key()] = true
		}
	}
	return out, true
}

// rowTouches reports whether any of the row's evidence facts is among
// the delta's changed winner keys.
func rowTouches(r query.Row, changed map[string]bool) bool {
	for i := range r.Facts {
		if changed[store.FactKey(&r.Facts[i])] {
			return true
		}
	}
	return false
}
