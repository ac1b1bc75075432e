// Package parallel runs independent, index-addressed work on every core.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and returns once every call has. fn must write only what index i owns —
// its own slot of a result slice — so the result does not depend on which
// goroutine ran which index.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
