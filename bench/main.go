// Command bench is the repository's HTTP-level load benchmark. It starts
// the serving daemon as a child process (`bench serve`, wired like
// cmd/qkbflyd over a world scaled to about 10^4 facts), drives it over
// loopback TCP from this process with at most two connections, checks the
// answers, and prints every metric by name and unit. See README.md.
//
//	go run ./bench -workload all                     every workload, untraced then traced
//	go run ./bench -workload kb_cold -trace 0        one untraced run; last line is the result
//	go run ./bench compare A.json B.json             per-cell difference against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metric is one reported number. Calls is the number of samples or calls
// behind a time; it is printed, and kept in the -out file, but is not part
// of the one-line result the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Calls int     `json:"calls,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	WallS     float64           `json:"wall_s"`
}

// resultFile is what -out writes and `bench compare` reads.
type resultFile struct {
	Machine machine  `json:"machine"`
	Seed    int64    `json:"seed"`
	Scale   int      `json:"scale"`
	Seconds int      `json:"seconds"`
	Runs    []result `json:"runs"`
}

type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   bool   `json:"vcs_modified,omitempty"`
}

func thisMachine() machine {
	m := machine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// workloadOrder is the order of a full set; workloads maps each name to
// its run function (one file per workload).
var workloadOrder = []string{"kb_cold", "kb_hot", "ingest_follow", "query_mixed"}

var workloads = map[string]func(*run) error{
	"kb_cold":       runKBCold,
	"kb_hot":        runKBHot,
	"ingest_follow": runIngestFollow,
	"query_mixed":   runQueryMixed,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := serveMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "bench serve:", err)
				os.Exit(1)
			}
			return
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		workload = fs.String("workload", "all", "kb_cold, kb_hot, ingest_follow, query_mixed, or all")
		seed     = fs.Int64("seed", 1, "seed of the world the daemon serves (cmd/qkbflyd's -seed) and of every random draw of the load")
		scale    = fs.Int("scale", 8, "world size as a multiple of corpus.DefaultConfig")
		seconds  = fs.Int("seconds", 15, "length of the measured window of an untraced run")
		trace    = fs.String("trace", "", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default: 0 for one workload, both for all")
		out      = fs.String("out", "", "write every run's metrics to this JSON file (default bench/out/run.json for -workload all)")
	)
	_ = fs.Parse(args)

	// A signal must not leave children behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	names := []string{*workload}
	traces := []bool{*trace == "1"}
	if *workload == "all" {
		names = workloadOrder
		if *trace == "" {
			traces = []bool{false, true}
		}
		if *out == "" {
			*out = filepath.Join("bench", "out", "run.json")
		}
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, got %q\n", *trace)
		return 2
	}

	file := resultFile{Machine: thisMachine(), Seed: *seed, Scale: *scale, Seconds: *seconds}
	code := 0
	for _, traced := range traces {
		for _, name := range names {
			res, err := runOne(runConfig{workload: name, seed: *seed, scale: *scale, seconds: *seconds, traced: traced,
				outDir: filepath.Join("bench", "out")})
			killAll()
			if err != nil {
				// No result line: the driver must not mistake a broken run for a measurement.
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			file.Runs = append(file.Runs, *res)
			printResult(res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *workload != "all" {
		fmt.Println(string(driverLine(&file.Runs[0])))
	}
	return code
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine renders the run as the one JSON object the driver reads from
// the last line of standard output: exactly the declared end-to-end
// metrics of an untraced run, or the declared per-layer metrics of a
// traced one. The driver wants every declared name on every workload, so a
// per-layer metric of a layer the workload does not touch reads 0 here
// (README marks those cells "–"; printResult and the -out file leave them
// out). A metric the workload does exercise never reads 0 for want of
// samples: setPercentile and finishEndToEnd fail the run instead.
func driverLine(res *result) []byte {
	decl := endToEnd
	if res.Traced {
		decl = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range decl {
		line.Metrics[d.name] = mv{res.Metrics[d.name].Value, d.unit}
	}
	b, _ := json.Marshal(line)
	return b
}

// printResult prints one run as a table: every metric by name, with its
// value, unit and the number of samples or calls behind it.
func printResult(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s): correct=%v attempted=%d failed=%d wall=%.1fs\n",
		res.Workload, mode, res.Correct, res.Attempted, res.Failed, res.WallS)
	for _, decl := range [][]decl{endToEnd, perLayer} {
		for _, d := range decl {
			m, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			calls := ""
			if m.Calls > 0 {
				calls = fmt.Sprintf("  n=%d", m.Calls)
			}
			fmt.Printf("  %-36s %14.4f %-8s%s\n", d.name, m.Value, m.Unit, calls)
		}
	}
}

func runOne(cfg runConfig) (*result, error) {
	start := time.Now()
	r := newRun(cfg)
	defer r.cleanup()
	if err := workloads[cfg.workload](r); err != nil {
		return nil, err
	}
	res := r.result()
	res.WallS = time.Since(start).Seconds()
	return res, nil
}
