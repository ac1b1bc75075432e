package qkbfly

import (
	"context"
	"sync"

	"qkbfly/internal/analytics"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/stats"
)

// Counter names an AnalyticsTracker records into AnalyticsOptions.Counters.
const (
	CounterAnalyticsApplied = "analytics_deltas_applied"
	CounterAnalyticsResyncs = "analytics_resyncs"
	CounterAnalyticsDrops   = "analytics_watch_drops"
)

// analyticsWatchBuffer is how many versions a WatchAnalytics subscriber
// may fall behind before it is dropped, like a session watcher.
const analyticsWatchBuffer = 256

// AnalyticsOptions configure an AnalyticsTracker.
type AnalyticsOptions struct {
	// Counters, when non-nil, receives the analytics_* accounting.
	Counters *stats.CounterSet
}

// AnalyticsTracker maintains incremental analytical aggregates for one
// session — entity/fact distributions, per-predicate confidence
// histograms, per-document contributions, growth over versions — folded
// from the session's delta stream instead of scanning snapshots. Folding
// a version costs O(|delta|); the /analytics endpoint therefore answers
// from state that is already current, independent of corpus size.
//
// The tracker consumes the session's Feed from a snapshot: it seeds from
// the feed's reset snapshot and folds the tail, which starts at the very
// next version. If its subscription is ever dropped for lagging (or a
// fold detects divergence), it resynchronizes by full recompute over a
// fresh feed's snapshot and resumes folding — correctness never depends
// on the stream staying healthy, only freshness does. Growth history
// restarts empty after a resync (it cannot be reconstructed from one
// version).
type AnalyticsTracker struct {
	s      *Session
	opt    AnalyticsOptions
	cancel context.CancelFunc
	done   chan struct{}

	subs *fanout[analytics.VersionDelta] // re-broadcast of every folded version

	mu      sync.Mutex
	st      *analytics.State
	summary *analytics.Summary // cached; invalidated on every fold
	id      store.Identity     // snapshot identity at st's version
}

// NewAnalyticsTracker starts incremental analytics over a session. The
// returned tracker owns a background goroutine; Close it before (or
// after) closing the session.
func NewAnalyticsTracker(s *Session, opt AnalyticsOptions) *AnalyticsTracker {
	ctx, cancel := context.WithCancel(context.Background())
	t := &AnalyticsTracker{
		s:      s,
		opt:    opt,
		cancel: cancel,
		done:   make(chan struct{}),
		subs:   newFanout[analytics.VersionDelta](analyticsWatchBuffer),
	}
	f := t.feed(ctx)
	t.st = analytics.FromKB(f.Reset.KB(), f.Cur, 0)
	t.id = f.Reset.Identity()
	go t.run(ctx, f.Tail)
	return t
}

// feed opens the session feed the tracker folds: the current snapshot
// to (re)seed from, then every later version.
func (t *AnalyticsTracker) feed(ctx context.Context) Feed {
	return t.s.Feed(ctx, FeedStart{Snapshot: true, Tail: true, Drops: CounterDeltaWatchDrops})
}

func (t *AnalyticsTracker) count(name string, d int64) {
	if t.opt.Counters != nil {
		t.opt.Counters.Add(name, d)
	}
}

// run is the tracker's fold loop: drain the feed's tail, and on a lag
// drop open a new feed and resync from its snapshot. Exits when the
// context is cancelled or the session closes.
func (t *AnalyticsTracker) run(ctx context.Context, tail <-chan DeltaEvent) {
	defer close(t.done)
	for {
		for ev := range tail {
			t.fold(&ev)
		}
		// Tail closed: session shutdown, tracker Close, or a lag drop.
		if ctx.Err() != nil || t.s.isClosed() {
			return
		}
		t.count(CounterAnalyticsDrops, 1)
		f := t.feed(ctx)
		t.count(CounterAnalyticsResyncs, 1)
		t.resync(f.Reset)
		tail = f.Tail
	}
}

// fold applies one published version. The feed delivers consecutive
// versions, so anything else — or a delta that does not apply — is
// divergence, repaired by a resync from the event's own snapshot.
func (t *AnalyticsTracker) fold(ev *DeltaEvent) {
	t.mu.Lock()
	if ev.Version == t.st.Version()+1 {
		vd, err := t.st.Apply(ev.Version, &ev.Delta)
		if err == nil {
			t.summary = nil
			t.id = ev.Snap.Identity()
			// Re-broadcast under t.mu, so a subscriber that attached before
			// reading Summary sees every version the summary lacks.
			t.subs.send(vd)
			t.mu.Unlock()
			t.count(CounterAnalyticsApplied, 1)
			return
		}
	}
	t.mu.Unlock()
	t.count(CounterAnalyticsResyncs, 1)
	t.resync(ev.Snap)
}

// resync rebuilds the state by full recompute over a snapshot — the
// recovery path, and the reference the property test holds folding to.
// The recompute runs off the tracker lock (it materializes the KB).
func (t *AnalyticsTracker) resync(snap *Snapshot) {
	st := analytics.FromKB(snap.KB(), snap.Version(), 0)
	t.mu.Lock()
	if snap.Version() >= t.st.Version() {
		t.st = st
		t.summary = nil
		t.id = snap.Identity()
	}
	t.mu.Unlock()
}

// Version returns the session version the tracker has folded up to.
func (t *AnalyticsTracker) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Version()
}

// Summary returns the aggregate view of the tracker's current version,
// the content identity of the snapshot it corresponds to, and whether
// the summary was served from the per-version cache (false means this
// call computed and cached it). Equal identities mean equal content, so
// equal aggregates; the version and growth records may still differ.
func (t *AnalyticsTracker) Summary() (sum *analytics.Summary, id store.Identity, cached bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.summary != nil {
		return t.summary, t.id, true
	}
	t.summary = t.st.Summary()
	return t.summary, t.id, false
}

// Growth returns the retained per-version analytic deltas, oldest first.
func (t *AnalyticsTracker) Growth() []analytics.VersionDelta {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Growth()
}

// WatchAnalytics subscribes to per-version analytic deltas as they fold
// — the live tail of /analytics?follow=. The channel closes when ctx is
// cancelled, the tracker closes, or the subscriber lags a full buffer
// behind. To pair it with a Summary without a gap, subscribe first and
// skip deltas at or below the summary's version.
func (t *AnalyticsTracker) WatchAnalytics(ctx context.Context) <-chan analytics.VersionDelta {
	return t.subs.subscribe(ctx, nil)
}

// Close stops the tracker: the fold loop exits, subscriber channels
// close, and the final state remains readable (Summary/Growth/Version
// keep answering). Idempotent.
func (t *AnalyticsTracker) Close() {
	t.subs.close()
	t.cancel()
	<-t.done
}
