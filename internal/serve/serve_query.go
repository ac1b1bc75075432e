package serve

import (
	"context"
	"slices"
	"sync"

	"qkbfly"
	"qkbfly/internal/query"
)

// Pattern-query serving: because session snapshots are immutable and
// carry a structural content identity (qkbfly.Snapshot.ContentID), a
// pattern's full answer set is a pure function of (normalized pattern,
// content identity). QueryPattern fronts the streaming engine with an
// LRU result cache on that key plus a singleflight group, so repeated
// standing dashboards and polling readers cost one evaluation per
// version — and evaluating is itself cheap (prefix scans over the
// snapshot's merge tree, no materialization). Entries are additionally
// delta-maintained across versions (serve_maintain.go): cached answers
// roll forward through each published delta instead of being lost to
// the ContentID change, so under write traffic a standing query still
// hits warm.

// patternEntry is one cached pattern answer: the rows plus the pattern
// they answer, kept so maintenance can re-evaluate without re-parsing,
// and the rows' JSON array, encoded once on the entry's first read.
// Rows, pattern and encoding are shared across callers — read-only.
type patternEntry struct {
	pat   *query.Pattern
	canon string // pat.Canonical(), computed once at insertion
	rows  []query.Row

	encOnce sync.Once
	enc     []byte
}

// encoded returns the rows as /query writes them, a JSON array of rows,
// encoding them on first use.
func (e *patternEntry) encoded() []byte {
	// The clone drops the slack appending left, as the entry keeps it.
	e.encOnce.Do(func() { e.enc = slices.Clone(appendRows(nil, e.rows)) })
	return e.enc
}

// patternKey keys the result cache: content identity first, so one
// version's entries form a key-prefix group that maintenance (and
// nothing else) collects with takePrefix.
func patternKey(cid, canonical string) string { return cid + "\x00" + canonical }

// QueryPattern evaluates p against the snapshot, serving from the
// pattern result cache when the same normalized pattern was already
// answered for identical content — whether by an earlier evaluation or
// by delta maintenance rolling an older answer forward. cached reports
// a cache hit or an in-flight join. The returned rows are shared across
// callers and must be treated read-only; a freshly evaluated answer is
// in the engine's deterministic order, a maintained one is row-set
// identical to recomputation but may order rows differently.
//
// Snapshots without a content identity (anonymous segments — e.g. a
// session over a bare System) evaluate uncached.
func (s *Server) QueryPattern(ctx context.Context, snap *qkbfly.Snapshot, p *query.Pattern) ([]query.Row, bool, error) {
	e, cached, err := s.queryPattern(ctx, snap, p)
	if e == nil {
		return nil, cached, err
	}
	return e.rows, cached, err
}

// queryPattern is QueryPattern returning the answer's entry, so /query
// can write its encoded rows. An uncached answer comes in an entry of
// its own that no cache holds.
func (s *Server) queryPattern(ctx context.Context, snap *qkbfly.Snapshot, p *query.Pattern) (*patternEntry, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	cid := snap.ContentID()
	if cid == "" {
		rows, err := snap.Query(p)
		if err != nil {
			return nil, false, err
		}
		return &patternEntry{pat: p, rows: rows.Collect()}, false, nil
	}
	canon := p.Canonical()
	key := patternKey(cid, canon)
	if e, ok := s.patterns.get(key); ok {
		s.counters.Add(CounterPatternHits, 1)
		return e, true, nil
	}
	fr, joined, err := s.pflight.do(ctx, key, func() *flightResult[*patternEntry] {
		// Double-check under the flight, like KB() does.
		if e, ok := s.patterns.get(key); ok {
			s.counters.Add(CounterPatternHits, 1)
			return &flightResult[*patternEntry]{res: e, hit: true}
		}
		s.counters.Add(CounterPatternMisses, 1)
		it, err := snap.Query(p)
		if err != nil {
			return &flightResult[*patternEntry]{err: err}
		}
		e := &patternEntry{pat: p, canon: canon, rows: it.Collect()}
		s.patterns.put(key, e)
		return &flightResult[*patternEntry]{res: e}
	})
	if err != nil {
		return nil, false, err // the joiner's own context was cancelled
	}
	if joined {
		s.counters.Add(CounterPatternJoins, 1)
	}
	return fr.res, joined || fr.hit, fr.err
}
