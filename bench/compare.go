package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	return &s, json.Unmarshal(b, &s)
}

// compareMain is `bench compare A.json B.json [-bounds k]`: for every
// workload and end-to-end metric, how much worse B is than A as a share of
// A, against the bound in BENCHMARK.json (times k). It exits 1 when any
// cell is outside its bound or missing, or either file has a failed request.
func compareMain(args []string) int {
	scale := 1.0
	if len(args) == 4 && args[2] == "-bounds" {
		if _, err := fmt.Sscan(args[3], &scale); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare: -bounds takes a number")
			return 2
		}
		args = args[:2]
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json [-bounds k]")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	return compareSets(os.Stdout, spec, &files[0], &files[1], scale)
}

// compareSets prints the table and returns the exit code.
func compareSets(out io.Writer, spec *benchmarkSpec, fa, fb *resultFile, scale float64) int {
	untraced := func(f *resultFile, workload string) *result {
		for i := range f.Runs {
			if r := &f.Runs[i]; r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}

	code := 0
	fmt.Fprintf(out, "%-14s %-18s %12s %12s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, name := range workloadOrder {
		a, b := untraced(fa, name), untraced(fb, name)
		if a == nil || b == nil {
			fmt.Fprintf(out, "%-14s missing from one file\n", name)
			code = 1
			continue
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(out, "%-14s failed requests: A %d, B %d\n", name, a.Failed, b.Failed)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := ""
			// Every workload reports every end-to-end metric, none of them
			// 0: a cell that is missing or 0 is a broken file, not a gain.
			if !(va > 0 && vb > 0) || worse > m.Bound*scale {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-18s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n",
				name, m.Name, va, vb, 100*worse, 100*m.Bound*scale, verdict)
		}
	}
	return code
}
