package main

import (
	"io"
	"testing"
)

func TestCompareRejectsWorseMissingAndZeroCells(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// set builds a full result file in which every end-to-end metric of
	// every workload is 100, except kb_hot's named one, which is v (absent
	// if v < 0).
	set := func(name string, v float64) *resultFile {
		f := &resultFile{}
		for _, w := range workloadOrder {
			r := result{Workload: w, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metric{Value: 100, Unit: d.unit}
			}
			if w == "kb_hot" && name != "" {
				if r.Metrics[name] = (metric{Value: v}); v < 0 {
					delete(r.Metrics, name)
				}
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	same := set("", 100)
	for _, tc := range []struct {
		name string
		a, b *resultFile
		want int
	}{
		{"identical", same, same, 0},
		{"latency inside the bound", same, set("latency_p50_ms", 120), 0},
		{"latency outside the bound", same, set("latency_p50_ms", 130), 1},
		{"throughput up", same, set("throughput_per_s", 200), 0},
		{"throughput outside the bound", same, set("throughput_per_s", 70), 1},
		{"metric missing from B", same, set("latency_p50_ms", -1), 1},
		{"metric zero in B", same, set("latency_p50_ms", 0), 1},
		{"metric missing from A", set("throughput_per_s", -1), same, 1},
		{"metric zero in A", set("latency_p95_ms", 0), same, 1},
	} {
		if got := compareSets(io.Discard, spec, tc.a, tc.b, 1); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
	failed := set("", 100)
	failed.Runs[0].Failed = 1
	if compareSets(io.Discard, spec, same, failed, 1) != 1 {
		t.Error("a file with a failed request passed")
	}
}
