package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Parent is the id of the span
// that caused it (0 for a root), Req the request both processes share
// (the parent process sends it in the X-Bench-Req header). Attrs carries
// the counts taken at the same boundary: documents, bytes, stage times.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start"` // unix ns
	End    int64              `json:"end"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It records nothing
// while off, so one child serves the untraced and the traced slices of a
// traced run and the two throughputs are comparable.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	// curKB and curIngest are the in-flight request span of each class,
	// the parent of a seam that receives no context (Retrieve, Publish).
	// A traced run has one client per class, so there is at most one.
	curKB, curIngest atomic.Pointer[span]

	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer whose ids start above base, so that the
// parent's and the child's spans never collide in one file.
func newTracer(base int64) *tracer {
	t := &tracer{}
	t.nextID.Store(base)
	return t
}

type spanKey struct{}

// start opens a span under the span ctx carries, else under fallback. It
// returns nil (and ctx unchanged) while the tracer is off; end(nil) is a
// no-op, so call sites need no branch.
func (t *tracer) start(ctx context.Context, name string, fallback *span) (*span, context.Context) {
	if t == nil || !t.on.Load() {
		return nil, ctx
	}
	sp := &span{ID: t.nextID.Add(1), Name: name, Start: time.Now().UnixNano()}
	parent, _ := ctx.Value(spanKey{}).(*span)
	if parent == nil {
		parent = fallback
	}
	if parent != nil {
		sp.Parent, sp.Req = parent.ID, parent.Req
	}
	return sp, context.WithValue(ctx, spanKey{}, sp)
}

func (t *tracer) end(sp *span) {
	if sp == nil {
		return
	}
	sp.End = time.Now().UnixNano()
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// record files a root span whose interval was measured elsewhere.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	sp := span{ID: t.nextID.Add(1), Name: name, Start: start.UnixNano(), End: end.UnixNano()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (sp *span) set(key string, v float64) {
	if sp == nil {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = map[string]float64{}
	}
	sp.Attrs[key] = v
}

// drain returns the recorded spans and forgets them.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other and may stick out of the parent; overlap counts once and the
// overhang not at all.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}
