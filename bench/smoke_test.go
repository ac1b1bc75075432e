package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// The test binary doubles as the child: spawn starts os.Executable() with
// "serve" as its first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	code := m.Run()
	killAll()
	os.Exit(code)
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, metrics.go %d + %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if spec.EndToEnd[i].Name != d.name || spec.EndToEnd[i].Unit != d.unit {
			t.Errorf("end-to-end metric %d: %v in BENCHMARK.json, %v in metrics.go", i, spec.EndToEnd[i], d)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		if spec.PerLayer[i].Name != d.name || spec.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: %v in BENCHMARK.json, %v in metrics.go", i, spec.PerLayer[i], d)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// smokeSeconds is the shortest window at scale 1 that gives each workload
// the samples its percentiles need: 1000 /kb or /query requests for a p99,
// 200 /ingest acknowledgements (about 55 a second) for a p95, and 20 sends
// of the open-loop writer (4 a second) for a median.
var smokeSeconds = map[string]int{"kb_cold": 4, "kb_hot": 4, "ingest_follow": 6, "query_mixed": 6}

var smokeSetups = map[string]int{"kb_cold": 3, "kb_hot": 3, "ingest_follow": 3, "query_mixed": 2}

// A short run of every workload at scale 1, traced and untraced: each must
// be correct and print exactly the declared metrics of its kind, and
// between them the four traced runs must exercise every declared metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	var mu sync.Mutex
	emitted := map[string]bool{}
	busy := false
	for _, traced := range []bool{true, false} {
		mode := "untraced"
		if traced {
			mode = "traced"
		}
		// The four workloads of one mode run side by side; the two modes
		// one after the other, or the windows would be too short for eight
		// daemons on two cores.
		t.Run(mode, func(t *testing.T) {
			for _, name := range workloadOrder {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := runOne(runConfig{workload: name, seed: 1, scale: 1, seconds: smokeSeconds[name], traced: traced, outDir: t.TempDir()})
					if errors.Is(err, errTooFewSamples) {
						mu.Lock()
						busy = true
						mu.Unlock()
						t.Skipf("machine too busy for a %d-second window: %v", smokeSeconds[name], err)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 {
						t.Errorf("correct=%v, failed=%d of %d", res.Correct, res.Failed, res.Attempted)
					}
					for _, d := range endToEnd {
						if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
							t.Errorf("end-to-end metric %s: %+v", d.name, m)
						}
					}
					// setup_s is the median of the run's cold starts; the
					// reopen cycles of ingest_follow are not set-ups.
					if n := res.Metrics["setup_s"].Calls; !traced && n != smokeSetups[name] {
						t.Errorf("setup_s is taken over %d set-ups, want %d", n, smokeSetups[name])
					}
					var line struct {
						Metrics map[string]struct{ Unit string } `json:"metrics"`
					}
					if err := json.Unmarshal(driverLine(res), &line); err != nil {
						t.Fatal(err)
					}
					declared := endToEnd
					if traced {
						declared = perLayer
					}
					if len(line.Metrics) != len(declared) {
						t.Errorf("result line carries %d metrics, %d are declared", len(line.Metrics), len(declared))
					}
					for _, d := range declared {
						if line.Metrics[d.name].Unit != d.unit {
							t.Errorf("result line has %s as %+v, declared in %s", d.name, line.Metrics[d.name], d.unit)
						}
					}
					mu.Lock()
					defer mu.Unlock()
					for name, m := range res.Metrics {
						if !isDeclared(name) {
							t.Errorf("metric %s (%+v) is emitted but not declared", name, m)
						}
						if traced {
							emitted[name] = true
						}
					}
				})
			}
		})
	}
	if t.Failed() || busy {
		return
	}
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("no workload emits the declared metric %s", d.name)
		}
	}
}

func isDeclared(name string) bool {
	for _, decl := range [][]decl{endToEnd, perLayer} {
		for _, d := range decl {
			if d.name == name {
				return true
			}
		}
	}
	return false
}
