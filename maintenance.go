package qkbfly

import (
	"qkbfly/internal/sched"
	"qkbfly/internal/stats"
)

// MaintainerOptions configured a Maintainer.
//
// Deprecated: the session compacts on its ingest path and records the
// maint_* counters into SessionOptions.Counters; these options have no
// effect.
type MaintainerOptions struct {
	Counters *stats.CounterSet
}

// Maintainer once compacted a session's snapshots on a background
// scheduler.
//
// Deprecated: every ingest compacts the version it published (see
// Session.Ingest); a Maintainer does nothing.
type Maintainer struct{}

// NewMaintainer returns a Maintainer that does nothing.
//
// Deprecated: see Maintainer.
func NewMaintainer(*Session, *sched.Scheduler, MaintainerOptions) *Maintainer { return &Maintainer{} }

// Close does nothing.
//
// Deprecated: see Maintainer.
func (*Maintainer) Close() {}
