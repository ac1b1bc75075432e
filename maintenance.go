// Background maintenance over session snapshots: the bridge between a
// Session and the internal/sched job scheduler. A Maintainer listens to
// every published version (the session's maintenance hook) and submits a
// snapshot-isolated deferred tail compaction that only ever reads the
// immutable snapshot, never the live tree. Results flow back through
// the same single-version publish discipline as ingestion: a compacted
// tree is adopted only after a content-identity check against its
// uncompacted source, and only while that source is still the current
// version.
package qkbfly

import (
	"context"
	"fmt"

	"qkbfly/internal/sched"
	"qkbfly/internal/stats"
)

// Counter names a Maintainer records into MaintainerOptions.Counters.
const (
	CounterMaintCompactions = "maint_compactions_adopted"
	CounterMaintSuperseded  = "maint_superseded"
	CounterMaintVerifyFails = "maint_verify_failures"
)

// maintKindCompact is the scheduler supersession group of compaction
// jobs: a version-v job cancels pending/running ones targeting older
// versions of the same session.
const maintKindCompact = "maint.compact"

// minLooseRuns is the compaction trigger: a job is only submitted once
// this many loose (uncompacted) leaf runs have accumulated since the last
// full compaction — low enough that read fan-in stays near the O(log W)
// bound, high enough that a burst of ingests coalesces into one job.
const minLooseRuns = 4

// MaintainerOptions configure background maintenance for one session.
type MaintainerOptions struct {
	// Counters, when non-nil, receives the maint_* accounting. Pass the
	// same set as SessionOptions.Counters and sched.Options.Counters to
	// surface all three groups through /stats.
	Counters *stats.CounterSet
}

// Maintainer wires a Session to a sched.Scheduler: every published
// version enqueues (never runs) a snapshot-isolated compaction job. One
// scheduler may serve many maintainers (and other submitters, like
// experiment sweeps); supersession is scoped per session via the kind
// prefix.
type Maintainer struct {
	s    *Session
	sc   *sched.Scheduler
	opt  MaintainerOptions
	kind string // per-session supersession group
}

// NewMaintainer attaches background maintenance to a session. The
// scheduler is shared, not owned: Close detaches the hook but does not
// close the scheduler. The session must not already have a maintainer.
func NewMaintainer(s *Session, sc *sched.Scheduler, opt MaintainerOptions) *Maintainer {
	m := &Maintainer{s: s, sc: sc, opt: opt, kind: fmt.Sprintf("%p/%s", s, maintKindCompact)}
	s.attachMaintenance(m)
	return m
}

// Close detaches the maintainer from its session. In-flight jobs finish
// (or are superseded) normally; their adoption attempts fail safely once
// the session moves on or closes. The shared scheduler stays open.
func (m *Maintainer) Close() { m.s.attachMaintenance(nil) }

func (m *Maintainer) count(name string, d int64) {
	if m.opt.Counters != nil {
		m.opt.Counters.Add(name, d)
	}
}

// published implements the session's maintenance hook. It runs under the
// session lock, so it only signals pressure and enqueues the job — the
// work itself happens on a scheduler worker against the immutable snap.
func (m *Maintainer) published(v uint64, snap *Snapshot, looseRuns int) {
	m.sc.NotifyPressure()
	if looseRuns >= minLooseRuns && snap.tree.RunCount() > 1 {
		m.sc.Submit(sched.Job{
			Kind:    m.kind,
			Version: v,
			Run:     func(ctx context.Context) error { return m.compact(ctx, snap) },
		})
	}
}

// compact is the deferred-compaction job body: replay the equal-weight
// merge rule over the pinned snapshot's tree, verify that the merged
// runs hold what the runs they replaced held — O(merged facts and
// entities), not O(window) — and offer the result back to the session.
// Every step tolerates supersession — a cancelled merge abandons
// cleanly, and an adoption against a stale snapshot is refused by the
// session itself.
func (m *Maintainer) compact(ctx context.Context, snap *Snapshot) error {
	compacted, changed := snap.tree.CompactContext(ctx)
	if err := ctx.Err(); err != nil {
		m.count(CounterMaintSuperseded, 1)
		return err
	}
	if !changed {
		return nil
	}
	// Content check against the uncompacted source, at the cost of what
	// the compaction merged: every run it replaced must match the span
	// of source runs it covers in identity and counts (runs it kept are
	// shared by pointer and skipped). Segment merging is associative in
	// content and layout, so any divergence here means a broken merge
	// function — refuse to publish it.
	if !snap.tree.CompactionPreserves(compacted) {
		m.count(CounterMaintVerifyFails, 1)
		return fmt.Errorf("qkbfly: maintenance: compacted tree diverges from snapshot at version %d", snap.version)
	}
	if !m.s.adoptCompacted(snap, compacted) {
		m.count(CounterMaintSuperseded, 1)
		return nil
	}
	m.count(CounterMaintCompactions, 1)
	return nil
}

// compile-time check that Maintainer satisfies the session hook.
var _ maintenanceHook = (*Maintainer)(nil)
