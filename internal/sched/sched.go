// Package sched is the background maintenance scheduler: a small FIFO
// worker pool for work that must only ever touch immutable snapshot
// versions — deferred tail compaction, batch experiment sweeps — never
// the live tree.
//
// The contract with the foreground ingest path has two parts:
//
//   - Supersession: jobs of the same Kind are keyed by the snapshot
//     version they target. Submitting a newer version's job removes the
//     pending older one and cancels a running one — work against a
//     version nobody can adopt anymore is abandoned, not finished.
//   - Ingest pressure: the foreground calls NotifyPressure on every
//     publish. The scheduler will not start a job until the foreground
//     has been quiet for cooldown, but never defers a ready job past
//     maxStall — foreground work always wins the tie, background work
//     still makes progress under a continuously loaded session.
//
// Everything is accounted through an optional stats.CounterSet (the
// "sched_" counters surfaced by /stats).
package sched

import (
	"context"
	"sync"
	"time"

	"qkbfly/internal/stats"
)

// Counter names recorded into Options.Counters.
const (
	CounterSubmitted  = "sched_submitted"
	CounterRun        = "sched_jobs_run"
	CounterFailed     = "sched_jobs_failed"
	CounterSuperseded = "sched_superseded"
	CounterCancelled  = "sched_cancelled"
	CounterBusyNS     = "sched_busy_ns"
	CounterStallNS    = "sched_stall_ns"
)

// The pressure gate: a job starts once the foreground has been quiet
// for cooldown, or once it has waited maxStall, whichever comes first.
const (
	cooldown = 2 * time.Millisecond
	maxStall = 100 * time.Millisecond
)

// Job is one unit of background work over an immutable snapshot.
type Job struct {
	// Kind is the supersession group: when a job of the same Kind with a
	// higher Version is submitted, this job is removed (pending) or its
	// context cancelled (running). "" disables supersession.
	Kind string
	// Version is the snapshot version the job targets, compared within
	// its Kind for supersession.
	Version uint64
	// Run does the work. It must honor ctx — cancellation means its
	// version was superseded or the scheduler closed — and must only read
	// immutable snapshot state.
	Run func(ctx context.Context) error
}

// Options configure a Scheduler.
type Options struct {
	// Workers is the number of concurrent job runners (default 1 — the
	// maintenance work itself should not compete with foreground CPU).
	Workers int
	// Counters, when non-nil, receives the sched_* accounting.
	Counters *stats.CounterSet
}

// running tracks one popped job, from the pressure gate to its end, for
// supersession, Drain and Close.
type running struct {
	kind    string
	version uint64
	cancel  context.CancelFunc
}

// Scheduler runs background jobs in submit order under the supersession
// / pressure contract. All methods are safe for concurrent use.
type Scheduler struct {
	opt Options

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []Job
	active       map[*running]struct{}
	lastPressure time.Time
	closed       bool
	wg           sync.WaitGroup
}

// New starts a scheduler with opt.Workers runner goroutines.
func New(opt Options) *Scheduler {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	s := &Scheduler{opt: opt, active: make(map[*running]struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) count(name string, d int64) {
	if s.opt.Counters != nil {
		s.opt.Counters.Add(name, d)
	}
}

// Submit enqueues a job, superseding any pending or running job of the
// same Kind targeting an older version. It returns false after Close.
func (s *Scheduler) Submit(j Job) bool {
	if j.Run == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if j.Kind != "" {
		// Drop pending same-kind jobs targeting older versions: nothing
		// can adopt their result once this submission's version exists.
		kept := s.queue[:0]
		for _, q := range s.queue {
			if q.Kind == j.Kind && q.Version < j.Version {
				s.count(CounterSuperseded, 1)
				continue
			}
			kept = append(kept, q)
		}
		clear(s.queue[len(kept):])
		s.queue = kept
		for r := range s.active {
			if r.kind == j.Kind && r.version < j.Version {
				r.cancel()
				s.count(CounterSuperseded, 1)
			}
		}
	}
	s.queue = append(s.queue, j)
	s.count(CounterSubmitted, 1)
	s.cond.Broadcast()
	return true
}

// NotifyPressure records foreground activity (an ingest publishing a
// version): no new job starts until cooldown has passed, up to maxStall.
func (s *Scheduler) NotifyPressure() {
	s.mu.Lock()
	s.lastPressure = time.Now()
	s.mu.Unlock()
}

// Drain blocks until the queue is empty and no job is running or held
// in the pressure gate. New submissions after Drain returns run
// normally; use it in tests and at controlled checkpoints, not as a
// shutdown (see Close).
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for len(s.queue) > 0 || len(s.active) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close stops the scheduler: pending jobs are discarded (counted as
// cancelled), running jobs have their contexts cancelled, and workers
// exit once their current job returns. Close blocks until all workers
// stopped; it is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.count(CounterCancelled, int64(len(s.queue)))
	s.queue = nil
	for r := range s.active {
		r.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker is one runner goroutine.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		j := s.queue[0]
		s.queue[0] = Job{}
		s.queue = s.queue[1:]
		// The job is active from the pop on, so Drain waits for it while
		// it is held in the pressure gate and a newer version's Submit can
		// supersede it there.
		ctx, cancel := context.WithCancel(context.Background())
		r := &running{kind: j.Kind, version: j.Version, cancel: cancel}
		s.active[r] = struct{}{}
		s.awaitQuietLocked(ctx)
		switch {
		case ctx.Err() == nil:
			s.mu.Unlock()
			s.run(ctx, j)
			s.mu.Lock()
		case s.closed:
			s.count(CounterCancelled, 1)
		}
		// Otherwise the job was superseded in the gate (already counted)
		// and is dropped without running.
		cancel()
		delete(s.active, r)
		s.cond.Broadcast()
	}
}

// awaitQuietLocked is the pressure gate: it returns once the foreground
// has been quiet for cooldown, the job has waited maxStall, or ctx is
// cancelled. It sleeps off the lock so Submit and NotifyPressure never
// block on a gated worker. Callers hold s.mu.
func (s *Scheduler) awaitQuietLocked(ctx context.Context) {
	ready := time.Now()
	var stalled time.Duration
	for ctx.Err() == nil {
		wait := min(cooldown-time.Since(s.lastPressure), maxStall-time.Since(ready))
		if wait <= 0 {
			break
		}
		s.mu.Unlock()
		time.Sleep(wait)
		stalled += wait
		s.mu.Lock()
	}
	if stalled > 0 {
		s.count(CounterStallNS, int64(stalled))
	}
}

// run executes one job off the lock and accounts for it.
func (s *Scheduler) run(ctx context.Context, j Job) {
	start := time.Now()
	err := j.Run(ctx)
	s.count(CounterBusyNS, int64(time.Since(start)))
	s.count(CounterRun, 1)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		s.count(CounterCancelled, 1)
	default:
		s.count(CounterFailed, 1)
	}
}
