package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

type runConfig struct {
	workload string
	// seed selects the world the daemon serves (the child's -seed) and
	// drives every random draw of the load: which items are popular, which
	// query comes next, which order the documents arrive in.
	seed    int64
	scale   int
	seconds int
	traced  bool
	outDir  string // trace files and scratch data dirs; bench/out unless a test says otherwise
}

// errTooFewSamples marks a window that was too short, on this machine, for
// the percentiles the benchmark reports.
var errTooFewSamples = errors.New("window too short for this machine")

// run is the state of one run of one workload.
type run struct {
	cfg   runConfig
	start time.Time
	wd    *world  // the parent's copy of the world: inputs and reference answers
	tr    *tracer // parent-side spans; nil in an untraced run
	c     *child
	tmp   string // scratch directory for data dirs, removed at the end

	metrics    map[string]metric
	attempted  int
	failed     int
	mismatches []string  // correctness failures, each also counted in failed
	setups     []float64 // seconds, one per set-up of this run
	cpu0       cpuTimes  // the machine's processor time when the window opened
	spans      []span    // the child's spans, drained before it ends

	// A traced run alternates one-second traced and untraced slices on the
	// same child; the ratio of the two throughputs is the tracing overhead.
	slicing             atomic.Bool
	tracedOps, plainOps atomic.Int64
	tracedS, plainS     float64
}

func newRun(cfg runConfig) *run {
	r := &run{cfg: cfg, start: time.Now(), metrics: map[string]metric{}}
	r.wd = buildWorld(cfg.seed, cfg.scale)
	if cfg.traced {
		r.tr = newTracer(1 << 40)
	}
	return r
}

// draws returns the seeded random stream for one purpose of this run.
// Each purpose has a stream of its own, so how much one consumer draws
// never shifts what another one gets.
func (r *run) draws(purpose string) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed ^ purposeHash(purpose)))
}

func purposeHash(purpose string) int64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return int64(h.Sum64() >> 1)
}

func (r *run) cleanup() {
	if r.c != nil {
		r.c.kill()
	}
	if r.tmp != "" {
		_ = os.RemoveAll(r.tmp)
	}
}

// tmpDir returns a fresh directory under the run's output directory,
// inside the checkout.
func (r *run) tmpDir() (string, error) {
	if r.tmp == "" {
		if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
			return "", err
		}
		d, err := os.MkdirTemp(r.cfg.outDir, "tmp-")
		if err != nil {
			return "", err
		}
		r.tmp = d
	}
	return os.MkdirTemp(r.tmp, "data-")
}

// phase logs how far into the run a step was reached, so that a run that
// overruns its time budget shows where.
func (r *run) phase(name string) {
	fmt.Fprintf(os.Stderr, "bench: %s: %6.1fs %s\n", r.cfg.workload, time.Since(r.start).Seconds(), name)
}

func (r *run) set(name, unit string, v float64, calls int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Calls: calls}
}

// window opens the measured window. The warm-up before it (2 s, less for
// a very short run) is issued and discarded: it fills the engine's scratch
// pools, the HTTP connections and the Go heap.
func (r *run) window() window {
	r.cpu0 = readCPUTimes()
	length := time.Duration(r.cfg.seconds) * time.Second
	return newWindow(min(2*time.Second, length/4), length)
}

// loadClients is the number of closed-loop clients of the workload's
// primary request class: two, so both cores stay busy, and one in a traced
// run, so every layer span has exactly one enclosing request.
func (r *run) loadClients() int {
	if r.cfg.traced {
		return 1
	}
	return 2
}

// childArgs are the flags every child of this run gets.
func (r *run) childArgs(extra ...string) []string {
	args := []string{"-seed", strconv.FormatInt(r.cfg.seed, 10), "-scale", strconv.Itoa(r.cfg.scale)}
	if r.cfg.traced {
		args = append(args, "-trace")
	}
	return append(args, extra...)
}

// respawn replaces the run's child: the old one, if any, is killed, and
// a new one started with the run's flags and args.
func (r *run) respawn(args ...string) error {
	if r.c != nil {
		r.c.kill()
	}
	c, err := spawn(r.childArgs(args...)...)
	r.c = c
	return err
}

// setupTimes is how many times a run sets up: n, so that setup_s is a
// median and not a single cold start, or once in a traced run, which does
// not report setup_s.
func (r *run) setupTimes(n int) int {
	if r.cfg.traced {
		return 1
	}
	return n
}

// setUp spawns the child and runs the workload's preload, timing both as
// one set-up. Only the child of the last set-up is kept.
func (r *run) setUp(preload func(*child) error, args ...string) error {
	start := time.Now()
	if err := r.respawn(args...); err != nil {
		return err
	}
	if preload != nil {
		if err := preload(r.c); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return nil
}

// mismatch records one correctness failure.
func (r *run) mismatch(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// request performs one load request under a client span and returns the
// body and the latency, send to last byte read.
func (r *run) request(method, path string, body []byte) ([]byte, time.Duration, error) {
	route, _, _ := strings.Cut(path, "?")
	sp, _ := r.tr.start(context.Background(), "client"+route, nil)
	var req int64
	if sp != nil {
		req, sp.Req = sp.ID, sp.ID
	}
	t0 := time.Now()
	b, err := r.c.do(method, path, body, req)
	d := time.Since(t0)
	r.tr.end(sp)
	if r.slicing.Load() {
		if sp != nil {
			r.tracedOps.Add(1)
		} else {
			r.plainOps.Add(1)
		}
	}
	return b, d, err
}

// traceSlices switches tracing on and off, in both processes, once a
// second for the length of the window. It returns when the window ends,
// with tracing off.
func (r *run) traceSlices(w window) {
	if r.tr == nil {
		return
	}
	time.Sleep(time.Until(w.start))
	r.slicing.Store(true)
	defer r.slicing.Store(false)
	for on := true; time.Now().Before(w.end); on = !on {
		flag := "0"
		if on {
			flag = "1"
		}
		_, _ = r.c.ctlGet("/bench/trace?on=" + flag)
		r.tr.on.Store(on)
		t0 := time.Now()
		time.Sleep(min(time.Second, time.Until(w.end)))
		if on {
			r.tracedS += time.Since(t0).Seconds()
		} else {
			r.plainS += time.Since(t0).Seconds()
		}
	}
	_, _ = r.c.ctlGet("/bench/trace?on=0")
	r.tr.on.Store(false)
}

// finishEndToEnd derives the end-to-end metrics every workload reports
// from the primary request class's samples.
func (r *run) finishEndToEnd(lat *latencies, w window, peakRSSMiB float64) error {
	p50, p95, rate, n, err := lat.steady(w.length())
	if err != nil {
		return fmt.Errorf("%w: %v", errTooFewSamples, err)
	}
	r.set("latency_p50_ms", "ms", p50, n)
	r.set("latency_p95_ms", "ms", p95, n)
	r.set("throughput_per_s", "1/s", rate, n)
	r.set("setup_s", "s", medianOf(r.setups), len(r.setups))
	r.set("peak_rss_mb", "MiB", peakRSSMiB, 0)
	if cpu := readCPUTimes(); cpu.total > r.cpu0.total {
		r.set("gen.steal_ratio", "ratio", (cpu.steal-r.cpu0.steal)/(cpu.total-r.cpu0.total), 0)
	}
	return nil
}

// cpuTimes is the first line of /proc/stat: the processor time of the
// whole machine, in ticks, and the part of it a hypervisor gave to other
// guests while this one had work to run.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (t cpuTimes) {
	b, _ := os.ReadFile("/proc/stat") // absent off Linux: the metric is then not reported
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// setPercentile reports the q-quantile of a request class over the whole
// window under name. A workload calls it only for the percentiles its
// window is sized for, so too few samples fail the run: a percentile that
// quietly read 0 would pass for a perfect one.
func (r *run) setPercentile(name string, l *latencies, q float64) error {
	s := l.sorted()
	d, err := percentile(s, q)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", errTooFewSamples, name, err)
	}
	r.set(name, "ms", ms(d), len(s))
	return nil
}

// result closes the run: the tracing overhead, the failure ratio, and the
// verdict.
func (r *run) result() *result {
	if r.tr != nil && r.tracedS > 0 && r.plainS > 0 && r.plainOps.Load() > 0 {
		traced := float64(r.tracedOps.Load()) / r.tracedS
		plain := float64(r.plainOps.Load()) / r.plainS
		r.set("trace.overhead_ratio", "ratio", traced/plain, int(r.tracedOps.Load()+r.plainOps.Load()))
	}
	r.set("failed_ratio", "ratio", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	r.set("gen.setup_s", "s", r.wd.elapsed.Seconds(), 0)
	for _, m := range r.mismatches {
		fmt.Fprintf(os.Stderr, "bench: %s: MISMATCH %s\n", r.cfg.workload, m)
	}
	return &result{
		Workload: r.cfg.workload, Traced: r.cfg.traced,
		Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: r.metrics,
	}
}
