package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qkbfly/internal/stats"
)

// keepPressure calls NotifyPressure in a tight yielding loop, so the
// foreground never looks quiet for a whole cooldown, until the returned
// stop function is called.
func keepPressure(s *Scheduler) (stop func()) {
	s.NotifyPressure()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.NotifyPressure()
				runtime.Gosched()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// TestSchedSupersession: with a single worker held busy, queued jobs run
// in submit order, and submitting a newer version of a Kind removes the
// pending older job and cancels the running one. A cancelled job's error
// counts as a cancellation, any other error as a failure.
func TestSchedSupersession(t *testing.T) {
	c := stats.NewCounterSet()
	s := New(Options{Workers: 1, Counters: c})
	defer s.Close()

	started := make(chan struct{})
	cancelled := make(chan struct{})
	s.Submit(Job{Kind: "compact", Version: 1, Run: func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // hold until superseded
		close(cancelled)
		return ctx.Err()
	}})
	<-started

	var mu sync.Mutex
	var order []string
	record := func(kind string, v uint64, name string) Job {
		return Job{Kind: kind, Version: v, Run: func(ctx context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			if name == "c" {
				return errors.New("job c fails")
			}
			return nil
		}}
	}
	// Queued behind the held job: one that a newer version drops without
	// running, and unkinded jobs that must keep their submit order.
	s.Submit(record("", 0, "a"))
	s.Submit(record("other", 1, "other-v1"))
	s.Submit(record("", 0, "b"))
	// Superseding submissions for both kinds.
	s.Submit(record("other", 2, "other-v2"))
	s.Submit(record("compact", 2, "compact-v2"))
	s.Submit(record("", 0, "c"))

	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("running v1 job was not cancelled by the v2 submission")
	}
	s.Drain()
	if got := c.Get(CounterSuperseded); got != 2 {
		t.Errorf("superseded = %d, want 2 (one pending, one running)", got)
	}
	if nc, nf := c.Get(CounterCancelled), c.Get(CounterFailed); nc != 1 || nf != 1 {
		t.Errorf("cancelled = %d, failed = %d, want 1 and 1", nc, nf)
	}
	want := []string{"a", "b", "other-v2", "compact-v2", "c"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// TestSchedDrainWaitsForGatedJob: a job the worker has popped but holds
// in the pressure gate is still outstanding — Drain waits for it, and a
// newer version's Submit supersedes it there, so it never runs.
func TestSchedDrainWaitsForGatedJob(t *testing.T) {
	c := stats.NewCounterSet()
	s := New(Options{Workers: 1, Counters: c})
	defer s.Close()
	stop := keepPressure(s)
	defer stop()

	var stale, fresh atomic.Int64
	s.Submit(Job{Kind: "compact", Version: 1, Run: func(ctx context.Context) error {
		stale.Add(1)
		return nil
	}})
	// Wait for the worker to pop v1 into the gate, which fresh pressure
	// holds it in for up to maxStall.
	for {
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued == 0 {
			break
		}
		runtime.Gosched()
	}
	s.Submit(Job{Kind: "compact", Version: 2, Run: func(ctx context.Context) error {
		fresh.Add(1)
		return nil
	}})
	s.Drain()
	if fresh.Load() != 1 {
		t.Error("Drain returned before the gated job ran")
	}
	if stale.Load() != 0 {
		t.Error("a job superseded in the pressure gate still ran")
	}
	if got := c.Get(CounterSuperseded); got != 1 {
		t.Errorf("superseded = %d, want 1", got)
	}
}

// TestSchedPressureDefersButNeverStarves: constant foreground pressure
// defers a job well past one cooldown, but maxStall bounds the deferral.
func TestSchedPressureDefersButNeverStarves(t *testing.T) {
	c := stats.NewCounterSet()
	s := New(Options{Workers: 1, Counters: c})
	defer s.Close()
	stop := keepPressure(s)
	defer stop()

	start := time.Now()
	ran := make(chan time.Duration, 1)
	s.Submit(Job{Run: func(ctx context.Context) error {
		ran <- time.Since(start)
		return nil
	}})
	select {
	case d := <-ran:
		if d < 10*cooldown {
			t.Errorf("job ran after %v despite fresh pressure and a %v cooldown", d, cooldown)
		}
		if d > 20*maxStall {
			t.Errorf("job stalled %v, maxStall is %v", d, maxStall)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job starved: maxStall did not bound the pressure deferral")
	}
	if c.Get(CounterStallNS) == 0 {
		t.Error("pressure deferral not accounted as stall time")
	}
}

// TestSchedCloseCancelsEverything: Close cancels the running job, drops
// the queue, and Submit afterwards reports the scheduler closed.
func TestSchedCloseCancelsEverything(t *testing.T) {
	c := stats.NewCounterSet()
	s := New(Options{Workers: 1, Counters: c})

	started := make(chan struct{})
	finished := make(chan error, 1)
	s.Submit(Job{Run: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		finished <- ctx.Err()
		return ctx.Err()
	}})
	<-started
	s.Submit(Job{Run: func(ctx context.Context) error { return nil }})
	s.Close()
	select {
	case err := <-finished:
		if err != context.Canceled {
			t.Errorf("running job saw %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("running job was not cancelled at Close")
	}
	if s.Submit(Job{Run: func(ctx context.Context) error { return nil }}) {
		t.Error("Submit after Close returned true")
	}
	if got := c.Get(CounterCancelled); got < 1 {
		t.Errorf("cancelled = %d, want >= 1 (the dropped pending job)", got)
	}
}
