package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		// Nested: 2 is a child of 1, 3 a child of 2.
		{ID: 2, Parent: 1, Name: "build", Start: at(10), End: at(50)},
		{ID: 3, Parent: 2, Name: "stage", Start: at(20), End: at(30)},
		// Overlapping siblings under 1: 40..70 overlaps 2 for 10 ms.
		{ID: 4, Parent: 1, Name: "publish", Start: at(40), End: at(70)},
		// A child that outlives its parent counts only up to the parent's end.
		{ID: 5, Parent: 1, Name: "late", Start: at(90), End: at(120)},
		// A root of its own.
		{ID: 6, Name: "background", Start: at(0), End: at(5)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 30 * time.Millisecond, // 100 - (10..70 = 60) - (90..100 = 10)
		2: 30 * time.Millisecond, // 40 - 10
		3: 10 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerParentsAndSwitch(t *testing.T) {
	tr := newTracer(100)
	if sp, _ := tr.start(context.Background(), "off", nil); sp != nil {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.end(nil) // must be a no-op
	tr.on.Store(true)
	root, ctx := tr.start(context.Background(), "root", nil)
	root.Req = 42
	child, ctx := tr.start(ctx, "child", nil)
	grand, _ := tr.start(ctx, "grandchild", nil)
	orphan, _ := tr.start(context.Background(), "seam without context", root)
	for _, sp := range []*span{grand, child, orphan, root} {
		tr.end(sp)
	}
	if child.Parent != root.ID || grand.Parent != child.ID || orphan.Parent != root.ID {
		t.Errorf("parents: child %d grandchild %d orphan %d (root is %d)", child.Parent, grand.Parent, orphan.Parent, root.ID)
	}
	if child.Req != 42 || grand.Req != 42 || orphan.Req != 42 {
		t.Error("spans of one request do not share its id")
	}
	if root.ID <= 100 {
		t.Errorf("span id %d not above the tracer's base", root.ID)
	}
	if got := len(tr.drain()); got != 4 {
		t.Errorf("drained %d spans, want 4", got)
	}
	if got := len(tr.drain()); got != 0 {
		t.Errorf("second drain returned %d spans", got)
	}
	var none *tracer
	if sp, _ := none.start(context.Background(), "nil tracer", nil); sp != nil {
		t.Error("a nil tracer recorded a span")
	}
}
