// Package sched is a small FIFO worker pool for background work that
// must only ever touch immutable snapshot versions — batch experiment
// sweeps over a pinned session snapshot — never the live tree. Jobs run
// in submit order; Close cancels the running ones and drops the rest.
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
	CounterSubmitted = "sched_submitted"
	CounterRun       = "sched_jobs_run"
	CounterFailed    = "sched_jobs_failed"
	CounterCancelled = "sched_cancelled"
	CounterBusyNS    = "sched_busy_ns"
)

// Job is one unit of background work over an immutable snapshot.
type Job struct {
	// Run does the work. It must honor ctx — cancellation means the
	// scheduler closed — and must only read immutable snapshot state.
	Run func(ctx context.Context) error
}

// Options configure a Scheduler.
type Options struct {
	// Workers is the number of concurrent job runners (default 1).
	Workers int
	// Counters, when non-nil, receives the sched_* accounting.
	Counters *stats.CounterSet
}

// Scheduler runs background jobs in submit order. All methods are safe
// for concurrent use.
type Scheduler struct {
	opt Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Job
	running int
	ctx     context.Context // cancelled by Close
	cancel  context.CancelFunc
	closed  bool
	wg      sync.WaitGroup
}

// New starts a scheduler with opt.Workers runner goroutines.
func New(opt Options) *Scheduler {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	s := &Scheduler{opt: opt}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
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

// Submit enqueues a job. It returns false after Close.
func (s *Scheduler) Submit(j Job) bool {
	if j.Run == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.queue = append(s.queue, j)
	s.count(CounterSubmitted, 1)
	s.cond.Broadcast()
	return true
}

// Drain blocks until the queue is empty and no job is running. New
// submissions after Drain returns run normally; use it in tests and at
// controlled checkpoints, not as a shutdown (see Close).
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for len(s.queue) > 0 || s.running > 0 {
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
	if !s.closed {
		s.closed = true
		s.count(CounterCancelled, int64(len(s.queue)))
		s.queue = nil
		s.cancel()
		s.cond.Broadcast()
	}
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
		s.running++
		s.mu.Unlock()
		s.run(j)
		s.mu.Lock()
		s.running--
		s.cond.Broadcast()
	}
}

// run executes one job off the lock and accounts for it.
func (s *Scheduler) run(j Job) {
	start := time.Now()
	err := j.Run(s.ctx)
	s.count(CounterBusyNS, int64(time.Since(start)))
	s.count(CounterRun, 1)
	switch {
	case err == nil:
	case s.ctx.Err() != nil:
		s.count(CounterCancelled, 1)
	default:
		s.count(CounterFailed, 1)
	}
}
