package qkbfly

import (
	"context"
	"sync"
)

// This file is the one way a published version leaves a Session: a
// registry of per-version delta subscribers, one cursor over the
// retained history, and Feed — "the versions after N, gap-free, then
// the tail". Watch, WatchPattern, FactsSince, DeltaSince and
// DeltaRecordsSince are projections of these; so are the /facts,
// /query?since=, /deltas and /analytics streams of internal/serve, the
// AnalyticsTracker and the pattern-cache maintainer.

// fanout is a set of subscribers to one stream of values: each gets a
// buffered channel fed by non-blocking sends, and one that falls a full
// buffer behind is dropped — its channel closes — rather than blocking
// the sender. Session publishes versions through one; AnalyticsTracker
// re-broadcasts its folded deltas through another.
type fanout[T any] struct {
	buf int // capacity of every subscriber channel

	mu     sync.Mutex
	subs   map[*subscriber[T]]struct{}
	closed bool
}

type subscriber[T any] struct {
	ch      chan T
	dropped func()      // runs once if the subscriber is shed for lagging; may be nil
	detach  func() bool // stops the context watchdog
}

func newFanout[T any](buf int) *fanout[T] {
	return &fanout[T]{buf: buf, subs: make(map[*subscriber[T]]struct{})}
}

// subscribe registers a subscriber. Its channel closes when ctx is
// cancelled, when the fanout closes, or when it lags a full buffer
// behind; in the last case dropped runs first, under the fanout's lock
// (and the sender's), so it must not block.
func (f *fanout[T]) subscribe(ctx context.Context, dropped func()) <-chan T {
	f.mu.Lock()
	defer f.mu.Unlock()
	sub := &subscriber[T]{ch: make(chan T, f.buf), dropped: dropped}
	if f.closed {
		close(sub.ch)
		return sub.ch
	}
	f.subs[sub] = struct{}{}
	sub.detach = context.AfterFunc(ctx, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.removeLocked(sub)
	})
	return sub.ch
}

// removeLocked closes and forgets one subscriber, detaching its context
// watchdog so a dropped subscriber does not stay pinned (with its
// buffer) to a long-lived context. Callers hold f.mu.
func (f *fanout[T]) removeLocked(sub *subscriber[T]) {
	if _, ok := f.subs[sub]; ok {
		delete(f.subs, sub)
		sub.detach()
		close(sub.ch)
	}
}

// send offers v to every subscriber without blocking.
func (f *fanout[T]) send(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		select {
		case sub.ch <- v:
		default:
			f.removeLocked(sub)
			if sub.dropped != nil {
				sub.dropped()
			}
		}
	}
}

// close closes every subscriber channel; later subscribers get a closed
// channel. Idempotent.
func (f *fanout[T]) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for sub := range f.subs {
		f.removeLocked(sub)
	}
}

// sinceLocked is the session's one history cursor: the retained diffs
// of the versions after v (oldest first; aliases s.history, whose
// dropped slots are cleared in place, so the slice is valid only while
// s.mu is held), the current version, and whether v is
// still inside the history horizon. ok=false means the versions right
// after v are gone and the consumer must re-baseline from a snapshot.
// Callers hold s.mu.
func (s *Session) sinceLocked(v uint64) (after []versionDelta, cur uint64, ok bool) {
	cur = s.cur.version
	if v >= cur {
		return nil, cur, true
	}
	// The horizon is the oldest version a replay can start from. History
	// holds consecutive versions up to cur, so it is the one before the
	// oldest retained diff — or cur itself when nothing is retained
	// (history disabled, or a freshly restored session).
	horizon := cur
	if len(s.history) > 0 {
		horizon = s.history[0].version - 1
	}
	if v < horizon {
		return nil, cur, false
	}
	return s.history[v-horizon:], cur, true
}

// FeedStart says where a Feed begins and whether it stays attached.
type FeedStart struct {
	// Since is the last version the consumer already holds.
	Since uint64
	// Snapshot demands a re-baseline from the current snapshot whatever
	// Since says — a consumer that diverged, or one that starts from
	// current state rather than from history.
	Snapshot bool
	// Tail keeps the feed subscribed to the versions published after
	// the replay; Drops names the session counter bumped if that
	// subscription is shed for lagging (one of the Counter*WatchDrops).
	Tail  bool
	Drops string
}

// Feed is one consumer's view of the session's version chain: where it
// starts — Reset, or Replay on top of what it holds — and every version
// after that, in order, without gaps or duplicates.
type Feed struct {
	// Reset is non-nil when the consumer must discard its state and
	// re-baseline from this snapshot (at version Cur): Since predates the
	// history horizon, or a snapshot was demanded. Replay is then empty.
	Reset *Snapshot
	// Replay holds the versions Since+1 … Cur, oldest first.
	Replay []DeltaEvent
	// Cur is the version Reset or Replay is complete up to.
	Cur uint64
	// Tail delivers the versions after Cur as they publish; nil unless
	// asked for. It closes when ctx is cancelled, the session closes, or
	// the consumer lags SessionOptions.WatchBuffer versions behind — it
	// then resumes with a new Feed from the last version it processed.
	Tail <-chan DeltaEvent
}

// Feed opens the version chain after from.Since. The subscription is
// attached in the same critical section that reads the history, so no
// version can fall between replay and tail and none arrives twice —
// the one place that rule lives for session versions.
func (s *Session) Feed(ctx context.Context, from FeedStart) Feed {
	s.mu.Lock()
	defer s.mu.Unlock()
	var f Feed
	if from.Tail {
		f.Tail = s.subs.subscribe(ctx, func() { s.count(from.Drops, 1) })
	}
	after, cur, ok := s.sinceLocked(from.Since)
	f.Cur = cur
	if from.Snapshot || !ok {
		f.Reset = s.cur
		return f
	}
	for _, d := range after {
		f.Replay = append(f.Replay, d.event())
	}
	return f
}

// subscribe attaches a bare per-version subscriber. It takes s.mu, so a
// subscription never lands in the middle of a publish: its first event
// is the first version published after it returns.
func (s *Session) subscribe(ctx context.Context, dropped func()) <-chan DeltaEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs.subscribe(ctx, dropped)
}

// WatchDeltas subscribes to every published version's full delta —
// additions, in-place upgrades, removals, and entity changes — in
// version order, with no confidence filtering: the bare tail of Feed,
// replaying nothing. Eviction-only versions are delivered too (they
// change content through removals alone), so a subscriber mirrors the
// complete version chain. The channel closes when ctx is cancelled, the
// session closes, or the subscriber lags WatchBuffer versions behind.
func (s *Session) WatchDeltas(ctx context.Context) <-chan DeltaEvent {
	return s.subscribe(ctx, func() { s.count(CounterDeltaWatchDrops, 1) })
}

// project turns a delta subscription into a channel of values derived
// from each version: each(ev) runs on the projection's own goroutine —
// never under the session lock — and its results are delivered with
// blocking sends, so the subscription's buffer absorbs WatchBuffer
// whole versions however many values one version projects to. The
// returned channel closes when ctx is cancelled, when the session
// closes (after the versions published before Close have drained), or
// as soon as the subscription is dropped for lagging, which bumps the
// named counter.
func project[T any](ctx context.Context, s *Session, counter string, each func(DeltaEvent) []T) <-chan T {
	ctx, cancel := context.WithCancel(ctx)
	in := s.subscribe(ctx, func() {
		s.count(counter, 1)
		cancel()
	})
	out := make(chan T)
	go func() {
		defer cancel()
		defer close(out)
		for ev := range in {
			for _, v := range each(ev) {
				select {
				case out <- v:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}
