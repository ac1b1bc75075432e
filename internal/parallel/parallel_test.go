package parallel

import (
	"sync/atomic"
	"testing"
)

// TestForCallsEachIndexOnce: every index in [0, n) is visited exactly
// once, for n below, at and above the worker count, and n = 0.
func TestForCallsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		seen := make([]atomic.Int32, n)
		For(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d called %d times", n, i, got)
			}
		}
	}
}
