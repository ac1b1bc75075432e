package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// sample is one request: when it was issued, relative to the start of
// the window, and how long it took.
type sample struct{ at, d time.Duration }

// latencies collects the samples of one request class within the window.
type latencies struct {
	mu sync.Mutex
	s  []sample
}

func (l *latencies) add(at, d time.Duration) {
	l.mu.Lock()
	l.s = append(l.s, sample{at, d})
	l.mu.Unlock()
}

// sorted returns the durations in ascending order.
func (l *latencies) sorted() []time.Duration {
	return l.slices(time.Hour, 1)[0]
}

// slices cuts a window of the given length into k equal slices and returns
// the sorted durations of the requests issued in each.
func (l *latencies) slices(length time.Duration, k int) [][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]time.Duration, k)
	for _, s := range l.s {
		i := min(int(int64(s.at)*int64(k)/int64(length)), k-1)
		out[i] = append(out[i], s.d)
	}
	for _, ds := range out {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	return out
}

// steady is how a run reduces one request class to the three numbers it
// reports: the window is cut into slices, each slice gives its own median,
// 95th percentile and request rate, and the run reports the median over
// the slices. A disturbance that lasts a few seconds (another tenant of the
// machine, a long collection) then moves a few slices and not the result.
// There are as many slices as give each about 400 samples, at most one a
// second; a slow request class gets a single slice, the whole window.
func (l *latencies) steady(length time.Duration) (p50, p95, perSecond float64, n int, err error) {
	l.mu.Lock()
	n = len(l.s)
	l.mu.Unlock()
	for k := max(1, min(n/400, int(length/time.Second))); ; k /= 2 {
		var p50s, p95s, rates []float64
		for _, ds := range l.slices(length, k) {
			var lo, hi time.Duration
			if lo, err = percentile(ds, 0.50); err != nil {
				break
			}
			if hi, err = percentile(ds, 0.95); err != nil {
				break
			}
			p50s, p95s = append(p50s, ms(lo)), append(p95s, ms(hi))
			rates = append(rates, float64(len(ds))*float64(k)/length.Seconds())
		}
		if err == nil {
			return medianOf(p50s), medianOf(p95s), medianOf(rates), n, nil
		}
		if k == 1 {
			return 0, 0, 0, n, err
		}
	}
}

// percentile returns the p-quantile (0 < p < 1) of sorted samples by the
// nearest-rank rule. It refuses a percentile with fewer than ten samples
// beyond it: a p99 needs 1000 samples, a median 20.
func percentile(sorted []time.Duration, p float64) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g needs at least 10 samples beyond it, have %d of %d", p*100, max(n-rank, 0), n)
	}
	return sorted[rank-1], nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf returns the median of xs (0 for none).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// window is the measured interval of a run. Requests issued before start
// are warm-up and discarded; clients stop issuing at end. A request counts
// when it was issued inside the window, even if it completes after it, so a
// slow request at the end is not dropped from the tail.
type window struct{ start, end time.Time }

func newWindow(warmup, length time.Duration) window {
	s := time.Now().Add(warmup)
	return window{start: s, end: s.Add(length)}
}

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }
func (w window) length() time.Duration     { return w.end.Sub(w.start) }
func (w window) seconds() float64          { return w.length().Seconds() }

// closedLoop runs `clients` callers that each issue their next request only
// when the previous one has returned, until the window ends. do performs
// request number i of client c (i counts from 0 per client) and returns its
// latency, send to last byte read, and whether the answer was correct;
// preparing the request and checking the answer are not part of the latency.
func closedLoop(w window, clients int, lat *latencies, do func(c, i int, measured bool) (time.Duration, bool)) (attempted, failed int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(w.end) {
					return
				}
				measured := w.contains(t0)
				d, ok := do(c, i, measured)
				if !measured {
					continue
				}
				lat.add(t0.Sub(w.start), d)
				mu.Lock()
				attempted++
				if !ok {
					failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return attempted, failed
}

// openLoop issues request i at start + i*interval whether or not earlier
// ones have returned in time: one sender, so a request that overruns its
// slot delays the next, and that delay is charged to the delayed request by
// timing every request from when it was due. late records how far behind
// schedule each send actually happened. sleep and now are injected so a
// test can stall the sender.
func openLoop(w window, interval time.Duration, lat, late *latencies,
	now func() time.Time, sleep func(time.Duration), do func(i int) (time.Time, bool)) (attempted, failed int) {
	for i := 0; ; i++ {
		due := w.start.Add(time.Duration(i) * interval)
		if !due.Before(w.end) {
			return attempted, failed
		}
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		sent := now()
		done, ok := do(i)
		lat.add(due.Sub(w.start), done.Sub(due))
		late.add(due.Sub(w.start), sent.Sub(due))
		attempted++
		if !ok {
			failed++
		}
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1; the workloads also use s = 1.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{cum: make([]float64, n), rng: rng}
	sum := 0.0
	for i := range z.cum {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = sum
	}
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}
