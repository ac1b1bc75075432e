package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"qkbfly"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/qa"
	"qkbfly/internal/sched"
	"qkbfly/internal/serve"
)

// bootInfo is the one line `bench serve` prints on stdout once it accepts
// requests. The reopen timings are taken here, around the same calls
// cmd/qkbflyd makes, because only the serving process can separate them
// from world generation.
type bootInfo struct {
	Addr          string  `json:"addr"`
	WorldS        float64 `json:"world_s"`
	OpenUS        float64 `json:"open_us"`        // persist.Open
	RestoreUS     float64 `json:"restore_us"`     // qkbfly.Restore
	FingerprintUS float64 `json:"fingerprint_us"` // materialize + fingerprint of the restored version
	Version       uint64  `json:"version"`
	Fingerprint   string  `json:"fingerprint_sha256,omitempty"`
}

// daemon is the running child: everything cmd/qkbflyd keeps in local
// variables, kept here so the layer probe can reach the same objects.
type daemon struct {
	wd      *world
	server  *serve.Server
	session *qkbfly.Session
	pstore  *persist.Store
	tr      *tracer // nil unless -trace
	// stopPatternMaint stops the pattern-cache roll-forward loop; the probe
	// calls it so it can drive RollPatternCache itself.
	stopPatternMaint func()
}

// serveMain is `bench serve`: cmd/qkbflyd/main.go's leader wiring, with the
// same cache capacities, TTL and maintenance settings, over a world scaled
// by -scale. It listens on a free loopback port and reports it.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "world seed")
		scale   = fs.Int("scale", 8, "world size as a multiple of corpus.DefaultConfig")
		window  = fs.Int("session-window", 0, "live-session rolling window in documents (0 = unbounded)")
		dataDir = fs.String("data-dir", "", "durable segment-store directory (empty = in-memory only)")
		trace   = fs.Bool("trace", false, "install the timing decorators and the /bench/ control endpoints")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	startTime := time.Now()
	d := &daemon{wd: buildWorld(*seed, *scale)}
	boot := bootInfo{WorldS: d.wd.elapsed.Seconds()}
	if *trace {
		d.tr = newTracer(0)
	}

	var backend serve.Backend = d.wd.sys
	if d.tr != nil {
		backend = tracedBackend{d.wd.sys, d.tr}
	}
	d.server = serve.New(backend, serve.Options{
		Capacity: 128, ShardCapacity: 1024, RunCapacity: 256, PatternCapacity: 256,
		TTL: 5 * time.Minute,
	})
	answerer := &qa.System{QKB: d.wd.sys, Repo: d.wd.w.Repo, Index: d.wd.idx, Builder: d.server}
	sessOpts := qkbfly.SessionOptions{
		MaxDocuments:    *window,
		DeferCompaction: true,
		Counters:        d.server.Counters(),
	}
	var builder qkbfly.ShardBuilder = d.server
	if d.tr != nil {
		builder = tracedBuilder{d.server, d.tr}
	}

	if *dataDir != "" {
		t := time.Now()
		pstore, rec, err := persist.Open(*dataDir, persist.Options{})
		if err != nil {
			return fmt.Errorf("opening -data-dir %s: %w", *dataDir, err)
		}
		boot.OpenUS = us(time.Since(t))
		d.pstore = pstore
		sessOpts.Persist = pstore
		if d.tr != nil {
			sessOpts.Persist = tracedPersistence{pstore, d.tr}
		}
		d.server.SetPersistStats(pstore.Counters)
		if rec.Version > 0 {
			st := qkbfly.SessionState{Version: rec.Version, NextSeq: rec.NextSeq}
			for _, rd := range rec.Docs {
				st.Docs = append(st.Docs, qkbfly.DocState{Key: rd.Key, Seq: rd.Seq, Seg: rd.Seg})
			}
			t = time.Now()
			d.session, err = qkbfly.Restore(builder, sessOpts, st)
			if err != nil {
				return fmt.Errorf("restoring session from %s: %w", *dataDir, err)
			}
			boot.RestoreUS = us(time.Since(t))
			// qkbflyd checks the fingerprint only against a sealed manifest;
			// after a SIGKILL there is no seal, so the parent does the
			// comparison, against the follower's verified stamp.
			t = time.Now()
			boot.Fingerprint = qkbfly.FingerprintSHAHex(d.session.Snapshot().Fingerprint())
			boot.FingerprintUS = us(time.Since(t))
			boot.Version = rec.Version
		}
	}
	if d.session == nil {
		d.session = qkbfly.Open(builder, sessOpts)
	}
	defer d.session.Close()
	d.stopPatternMaint = d.server.MaintainPatterns(context.Background(), d.session)
	defer func() { d.stopPatternMaint() }()

	scheduler := sched.New(sched.Options{Workers: 1, Counters: d.server.Counters()})
	defer scheduler.Close()
	maintainer := qkbfly.NewMaintainer(d.session, scheduler, qkbfly.MaintainerOptions{Counters: d.server.Counters()})
	defer maintainer.Close()
	tracker := qkbfly.NewAnalyticsTracker(d.session, qkbfly.AnalyticsOptions{Counters: d.server.Counters()})
	defer tracker.Close()

	handler := serve.NewHandler(d.server, serve.HandlerOptions{
		DefaultSource: "wikipedia",
		Answerer:      answerer,
		Session:       d.session,
		Analytics:     tracker,
		StartTime:     startTime,
	})
	if d.tr != nil {
		handler = d.controlMux(tracedHandler(handler, d.tr))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	boot.Addr = ln.Addr().String()
	if err := json.NewEncoder(os.Stdout).Encode(boot); err != nil {
		return err
	}
	// The parent ends a child with SIGKILL, so there is no shutdown path:
	// nothing here flushes or seals the store, as after a process crash.
	return fmt.Errorf("server error: %w", (&http.Server{Handler: handler}).Serve(ln))
}

// controlMux adds the traced child's control endpoints in front of the
// daemon's handler: switch the tracer, drain its spans, run the layer probe.
func (d *daemon) controlMux(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/bench/trace", func(w http.ResponseWriter, r *http.Request) {
		d.tr.on.Store(r.URL.Query().Get("on") == "1")
	})
	mux.HandleFunc("/bench/spans", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(d.tr.drain())
	})
	mux.HandleFunc("/bench/probe", func(w http.ResponseWriter, r *http.Request) {
		var req probeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(d.probe(r.Context(), req))
	})
	return mux
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
