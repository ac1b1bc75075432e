package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qkbfly/internal/stats"
)

// TestSchedFIFOOrderAndAccounting: with a single worker held busy,
// queued jobs run in submit order once it is released; Drain returns
// only after every one of them finished; a job's error counts as a
// failure, not a cancellation, while the scheduler is open.
func TestSchedFIFOOrderAndAccounting(t *testing.T) {
	c := stats.NewCounterSet()
	s := New(Options{Workers: 1, Counters: c})
	defer s.Close()

	var mu sync.Mutex
	var order []string
	record := func(name string) Job {
		return Job{Run: func(ctx context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			if name == "b" {
				return errors.New("job b fails")
			}
			return nil
		}}
	}
	started, release := make(chan struct{}), make(chan struct{})
	s.Submit(Job{Run: func(ctx context.Context) error {
		close(started)
		<-release
		return record("hold").Run(ctx)
	}})
	<-started
	for _, name := range []string{"a", "b", "c"} {
		s.Submit(record(name))
	}
	// The delay only makes it likely that Drain is already waiting when
	// the worker is released; the checks below hold either way.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	s.Drain()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"hold", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("Drain returned after %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if nr, nf, nc := c.Get(CounterRun), c.Get(CounterFailed), c.Get(CounterCancelled); nr != 4 || nf != 1 || nc != 0 {
		t.Errorf("run = %d, failed = %d, cancelled = %d, want 4, 1 and 0", nr, nf, nc)
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
	if nc, nf := c.Get(CounterCancelled), c.Get(CounterFailed); nc != 2 || nf != 0 {
		t.Errorf("cancelled = %d, failed = %d, want 2 (the running job and the dropped one) and 0", nc, nf)
	}
}
