package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration // 0: refused
	}{
		{1000, 0.99, 990 * time.Millisecond},
		{999, 0.99, 0}, // 9 beyond
		{200, 0.95, 190 * time.Millisecond},
		{199, 0.95, 0},
		{20, 0.50, 10 * time.Millisecond},
		{19, 0.50, 0},
		{0, 0.50, 0},
	} {
		got, err := percentile(samples(tc.n), tc.p)
		if (err != nil) != (tc.want == 0) || got != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want %v", tc.n, tc.p, got, err, tc.want)
		}
	}
}

// A run reports the median over one-second slices, so a few disturbed
// seconds do not move it; a request class too slow for that is reduced
// over the whole window.
func TestSteadyIsTheMedianOverSlices(t *testing.T) {
	var lat latencies
	for sec := 0; sec < 10; sec++ {
		d := time.Millisecond
		if sec >= 7 {
			d = 5 * time.Millisecond // three disturbed seconds out of ten
		}
		for i := 0; i < 1000; i++ {
			lat.add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond, d)
		}
	}
	p50, p95, rate, n, err := lat.steady(10 * time.Second)
	if err != nil || n != 10000 || p50 != 1 || p95 != 1 || rate != 1000 {
		t.Errorf("steady = %v ms, %v ms, %v/s, n=%d, %v; want 1, 1, 1000, 10000", p50, p95, rate, n, err)
	}

	var slow latencies
	for i := 0; i < 300; i++ {
		slow.add(time.Duration(i)*10*time.Millisecond, time.Duration(i+1)*time.Millisecond)
	}
	p50, p95, rate, _, err = slow.steady(3 * time.Second)
	if err != nil || p50 != 150 || p95 != 285 || rate != 100 {
		t.Errorf("one slice: %v ms, %v ms, %v/s, %v; want 150, 285, 100", p50, p95, rate, err)
	}
	if _, _, _, _, err := (&latencies{}).steady(time.Second); err == nil {
		t.Error("no samples gave a result")
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSeededDrawsRepeat(t *testing.T) {
	draw := func(seed int64) ([]int, []int) {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(50)
		z := newZipf(rng, 1.0, 1000)
		ranks := make([]int, 200)
		for i := range ranks {
			ranks[i] = z.next()
		}
		return perm, ranks
	}
	p1, z1 := draw(7)
	p2, z2 := draw(7)
	p3, z3 := draw(8)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(z1, z2) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(z1, z3) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestZipfFavoursTheHead(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(1)), 1.1, 1000)
	head := 0
	for i := 0; i < 10000; i++ {
		r := z.next()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		if r < 100 {
			head++
		}
	}
	// With s = 1.1 the first tenth of the ranks carries about 70 % of the mass.
	if head < 6000 || head > 8000 {
		t.Errorf("%d of 10000 draws fell in the first 100 ranks", head)
	}
}

// A stalled request must be charged to the requests it delays: the open
// loop times each request from when it was due, not from when it was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d) }
	w := window{start: clock, end: clock.Add(100 * time.Millisecond)}
	var lat, late latencies
	service := func(i int) (time.Time, bool) {
		d := time.Millisecond
		if i == 2 {
			d = 35 * time.Millisecond // one stall, three and a half slots long
		}
		clock = clock.Add(d)
		return clock, true
	}
	attempted, failed := openLoop(w, 10*time.Millisecond, &lat, &late, now, sleep, service)
	if attempted != 10 || failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 10, 0", attempted, failed)
	}
	// Request 2 is due at 20 ms and returns at 55 ms. Requests 3, 4 and 5
	// were due at 30, 40 and 50 ms and go out back to back after it.
	wantLat := []time.Duration{1, 1, 35, 26, 17, 8, 1, 1, 1, 1}
	wantLate := []time.Duration{0, 0, 0, 25, 16, 7, 0, 0, 0, 0}
	for i := range wantLat {
		if lat.s[i].d != wantLat[i]*time.Millisecond || late.s[i].d != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: latency %v late %v; want %vms, %vms", i, lat.s[i].d, late.s[i].d, wantLat[i], wantLate[i])
		}
	}
}

func TestClosedLoopCountsOnlyTheWindow(t *testing.T) {
	w := newWindow(20*time.Millisecond, 60*time.Millisecond)
	var lat latencies
	attempted, failed := closedLoop(w, 2, &lat, func(_, i int, _ bool) (time.Duration, bool) {
		time.Sleep(time.Millisecond)
		return time.Millisecond, i%10 != 9
	})
	if attempted == 0 || attempted != len(lat.s) {
		t.Errorf("attempted %d, %d samples", attempted, len(lat.s))
	}
	if failed == 0 || failed > attempted/5 {
		t.Errorf("failed %d of %d; every tenth request of a client fails", failed, attempted)
	}
	if time.Now().Before(w.end) {
		t.Error("closedLoop returned before the window ended")
	}
}
