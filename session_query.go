package qkbfly

import (
	"context"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
)

// This file is the session surface of the streaming pattern-query
// engine (internal/query): point-in-time queries against any pinned
// snapshot, and standing filtered watches that evaluate a pattern
// incrementally against each published version's delta instead of
// re-running the query — a projection of the session's delta feed
// (session_feed.go).

// Query streams the pattern's answer rows against this snapshot's merge
// tree — planning and execution run on the sorted segment runs
// directly, without materializing the snapshot, so querying a version
// is cheap even if nobody ever calls KB(). The returned iterator stays
// valid for as long as the snapshot is held, concurrently with ongoing
// ingestion.
func (s *Snapshot) Query(p *query.Pattern) (*query.Rows, error) {
	return query.Run(s.tree, p)
}

// ContentID returns a compact structural identity for the snapshot's
// content (store.Tree.ContentID): equal IDs guarantee byte-identical
// KBs, without the materialization that Fingerprint costs. It returns
// "" when the content is not identifiable (some segment carries no
// cache identity) — callers must then treat the snapshot as uncacheable.
func (s *Snapshot) ContentID() string { return s.tree.ContentID() }

// Tree exposes the snapshot's immutable merge tree for callers composing
// their own scans or incremental evaluation (query.EvalDelta against
// replayed deltas, as /query?since= does). The tree must be treated
// read-only.
func (s *Snapshot) Tree() *store.Tree { return s.tree }

// Query evaluates the pattern against the session's current version.
// It is shorthand for Snapshot().Query(p); pin a Snapshot instead to
// query one consistent version repeatedly.
func (s *Session) Query(ctx context.Context, p *query.Pattern) (*query.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Snapshot().Query(p)
}

// PatternEvent is one incremental match of a standing pattern: a full
// answer row (bindings plus supporting facts) stamped with the version
// whose delta produced it.
type PatternEvent struct {
	Version uint64    `json:"version"`
	Row     query.Row `json:"row"`
}

// WatchPattern registers a standing filtered watch: from now on, every
// published version evaluates the pattern against its delta
// (query.EvalDelta over the version's own tree — only clauses seeded by
// the version's added or upgraded facts run, not the whole query) and
// the resulting rows are delivered on the returned channel. Evaluation
// runs on the subscription's side, never under the session lock, so a
// slow pattern delays its own subscriber, not ingestion. The pattern's
// τ applies; its limit caps rows per version. Rows replay nothing —
// combine with Query for the current state, as /query?since= does. The
// channel closes when ctx is cancelled, the session closes, or the
// subscriber lags WatchBuffer versions behind, matching Watch.
//
// The pattern must not be mutated after registration. A version may
// re-deliver a row it delivered before when later evidence touches the
// same facts (e.g. a confidence upgrade re-matches); consumers needing
// exactly-once keyed state should dedup by Row.Key.
func (s *Session) WatchPattern(ctx context.Context, p *query.Pattern) <-chan PatternEvent {
	return project(ctx, s, CounterPatternWatchDrops, func(ev DeltaEvent) []PatternEvent {
		rows := query.EvalDelta(ev.Snap.Tree(), p, ev.Delta)
		events := make([]PatternEvent, len(rows))
		for i, row := range rows {
			events[i] = PatternEvent{Version: ev.Version, Row: row}
		}
		return events
	})
}
