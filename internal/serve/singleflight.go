package serve

import (
	"context"
	"errors"
	"sync"
)

// errFlightAborted is delivered to waiters whose leader died (panicked)
// without producing a result.
var errFlightAborted = errors.New("serve: in-flight build aborted")

// flightResult is what one execution delivers to every request
// coalesced onto it. res may be partially filled alongside a non-nil
// err (a cancelled KB build still yields the KB over its processed
// prefix). hit marks a leader that was satisfied straight from a cache
// double-check rather than doing the work.
type flightResult[T any] struct {
	res T
	err error
	hit bool
}

// flightCall is one in-flight execution; done is closed after res is set.
type flightCall[T any] struct {
	done chan struct{}
	res  *flightResult[T]
}

// flightGroup collapses concurrent duplicate work: for each key, the
// first caller becomes the leader and runs fn; callers arriving while the
// leader is still running wait and share its result, so N simultaneous
// identical requests cost one execution. The result type is fixed per
// group (the Server keeps one group per cache it fronts).
type flightGroup[K comparable, T any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[T]
}

func newFlightGroup[K comparable, T any]() *flightGroup[K, T] {
	return &flightGroup[K, T]{calls: make(map[K]*flightCall[T])}
}

// do executes fn once per key among concurrent callers. joined reports
// whether this caller waited on another caller's execution. A joiner
// whose own context is cancelled stops waiting and returns ctx.Err()
// without affecting the leader.
func (g *flightGroup[K, T]) do(ctx context.Context, key K, fn func() *flightResult[T]) (res *flightResult[T], joined bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.res == nil { // the leader panicked before delivering
				return nil, true, errFlightAborted
			}
			return c.res, true, nil
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall[T]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// Clean up even if fn panics: the key must not stay poisoned (waiters
	// would block forever and the query could never be served again).
	defer func() {
		g.mu.Lock()
		delete(g.calls, key) // before close: late arrivals start a fresh call
		g.mu.Unlock()
		close(c.done)
	}()
	c.res = fn()
	return c.res, false, nil
}
