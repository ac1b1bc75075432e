// Command qkbflyd is the long-lived QKBfly serving daemon: the §6 demo as
// an HTTP/JSON service. It keeps the background repositories, retrieval
// index and serving-layer caches (query cache, singleflight, per-document
// segment cache, partial-merge run cache) resident between queries, so
// repeated and overlapping queries skip both the construction pipeline
// and the shard merges.
//
// Endpoints:
//
//	GET  /kb?q=...&source=&size=&subject=&predicate=&object=&tau=&limit=
//	GET  /answer?q=...
//	POST /ingest        feed documents into the live session incrementally
//	POST /evict         drop documents from the live session
//	GET  /facts?since=  NDJSON stream of facts added since a version
//	GET  /query?pattern=...&tau=&limit=&stream=&since=&follow=
//	                    pattern queries over the live session: cached JSON,
//	                    NDJSON streaming (stream=1), standing incremental
//	                    matches (since=N, follow=1); also accepts POST JSON
//	GET  /session       live-session version and document window
//	GET  /analytics     incremental aggregates folded from the delta
//	                    stream (follow=1 for the NDJSON live tail)
//	GET  /stats
//	GET  /healthz
//
// The live session is opened on the serving layer, so incrementally
// ingested documents and query-driven builds share the per-document shard
// cache. -session-window bounds the session to a rolling window of the
// most recent documents. SIGINT/SIGTERM drains in-flight requests before
// exiting.
//
// With -follow <leader-url> the daemon runs as a read-only replication
// follower instead: it skips world generation entirely, subscribes to
// the leader's GET /deltas stream, applies each version's delta and
// verifies its KB's content identity against the leader's stamp before
// serving it. Reads (/facts, /query, /session) come from the last verified
// version; /healthz and /stats report role, lag and quarantines. A
// -data-dir names a blob-store directory (seeded from the leader's) to
// bootstrap from, so a follower far behind the leader's retained history
// replays only the versions after its bootstrap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/qa"
	"qkbfly/internal/replica"
	"qkbfly/internal/search"
	"qkbfly/internal/serve"
	"qkbfly/internal/stats"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		seed          = flag.Int64("seed", 1, "world seed")
		news          = flag.Int("news", 3, "news articles per event in the index")
		par           = flag.Int("parallelism", 0, "engine worker-pool size (0 = one per CPU)")
		capacity      = flag.Int("cache-capacity", 128, "query-cache entries")
		shardCapacity = flag.Int("shard-capacity", 1024, "per-document shard-cache entries")
		runCapacity   = flag.Int("run-capacity", 256, "partial-merge run-cache entries shared by sessions and queries")
		patCapacity   = flag.Int("pattern-capacity", 256, "pattern-query result-cache entries for /query")
		ttl           = flag.Duration("ttl", 5*time.Minute, "cache entry TTL (0 = no expiry)")
		drain         = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain window")
		pprofAddr     = flag.String("pprof", "", "net/http/pprof listen address (e.g. localhost:6060; empty = disabled)")
		window        = flag.Int("session-window", 0, "live-session rolling window in documents (0 = unbounded)")
		history       = flag.Int("session-history", 0, "live-session versions retained for /facts?since= (0 = default 1024)")
		dataDir       = flag.String("data-dir", "", "durable segment-store directory: session state survives restarts; with -follow, a blob store seeded from the leader to bootstrap from (empty = in-memory only)")
		memBudget     = flag.Int64("mem-budget", 0, "resident segment-payload byte budget with -data-dir; cold segments demote to disk (0 = keep everything resident)")
		follow        = flag.String("follow", "", "leader base URL (e.g. http://leader:8080): run as a read-only replication follower")
		retryBudget   = flag.Int("retry-budget", 10, "with -follow, consecutive failed leader connects before /healthz reports degraded (0 = never)")
	)
	flag.Parse()
	startTime := time.Now()

	if *follow != "" {
		runFollower(*addr, *follow, *dataDir, *retryBudget, *drain)
		return
	}

	if *pprofAddr != "" {
		// Profiles on a separate listener so production traffic and the
		// debug surface never share a port; enabled by flag so capturing a
		// CPU/heap profile never requires a rebuild.
		go func() {
			fmt.Fprintf(os.Stderr, "pprof listening on %s (/debug/pprof/)\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server error: %v\n", err)
			}
		}()
	}

	cfg := corpus.DefaultConfig()
	cfg.Seed = *seed
	fmt.Fprintln(os.Stderr, "generating world and background statistics...")
	buildStart := time.Now()
	w := corpus.NewWorld(cfg)
	bg := w.BackgroundCorpus()
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(bg), w.Repo, pipe)
	idx := search.New(corpus.Docs(append(bg, w.NewsDataset(*news)...)))
	fmt.Fprintf(os.Stderr, "world and background statistics ready in %s (%d entities, %d facts, %d background documents)\n",
		time.Since(buildStart).Round(time.Millisecond), len(w.Order), len(w.Facts), len(bg))

	qcfg := qkbfly.DefaultConfig()
	qcfg.Parallelism = *par
	sys := qkbfly.New(qkbfly.Resources{
		Repo: w.Repo, Patterns: w.Patterns, Stats: st, Index: idx,
	}, qcfg)

	server := serve.New(sys, serve.Options{
		Capacity:        *capacity,
		ShardCapacity:   *shardCapacity,
		RunCapacity:     *runCapacity,
		PatternCapacity: *patCapacity,
		TTL:             *ttl,
	})
	answerer := &qa.System{
		QKB:     sys,
		Repo:    w.Repo,
		Index:   idx,
		Builder: server, // per-question KBs go through the shard cache
	}
	// The live session shares the server's segment cache (a document
	// ingested here is already built when a /kb query retrieves it, and
	// vice versa) and its run cache (the session merge tree's partial
	// merges are reusable by query folds over the same documents). A
	// -session-window slide publishes exactly one version whose /facts
	// delta is the increment's diff. Tau is left 0 so /facts and watchers
	// see every fact; clients filter with their own ?tau=.
	sessOpts := qkbfly.SessionOptions{
		MaxDocuments: *window,
		HistoryLimit: *history,
		Counters:     server.Counters(),
	}

	// With -data-dir the session is durable: every published version's
	// leaf segments are written back as content-addressed blobs and the
	// manifest replayed on the next boot, so a restart resumes at the
	// exact pre-restart version instead of an empty session.
	var (
		pstore  *persist.Store
		session *qkbfly.Session
	)
	if *dataDir != "" {
		var rec *persist.Recovered
		var err error
		pstore, rec, err = persist.Open(*dataDir, persist.Options{MemoryBudget: int(*memBudget)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening -data-dir %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		sessOpts.Persist = pstore
		server.SetPersistStats(pstore.Counters)
		if rec.Version > 0 {
			st := qkbfly.SessionState{Version: rec.Version, NextSeq: rec.NextSeq}
			for _, d := range rec.Docs {
				st.Docs = append(st.Docs, qkbfly.DocState{Key: d.Key, Seq: d.Seq, Seg: d.Seg})
			}
			session, err = qkbfly.Restore(server, sessOpts, st)
			if err != nil {
				fmt.Fprintf(os.Stderr, "restoring session from %s: %v\n", *dataDir, err)
				os.Exit(1)
			}
			if rec.Sealed {
				// A sealed manifest pins the content identity the previous
				// process shut down with: verify the restored session (whose
				// identity Restore computed from the restored tree)
				// reproduces it exactly before serving anything.
				if got := session.Snapshot().Identity(); got != rec.Identity {
					fmt.Fprintf(os.Stderr, "restored KB identity %s does not match the sealed manifest's %s (data corruption?): refusing to serve\n",
						got.Hex(), rec.Identity.Hex())
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "warm restart: version %d, %d documents, identity verified\n",
					rec.Version, len(rec.Docs))
			} else {
				fmt.Fprintf(os.Stderr, "recovering from unclean shutdown: resumed at last complete version %d, %d documents\n",
					rec.Version, len(rec.Docs))
			}
		} else {
			fmt.Fprintf(os.Stderr, "durable store initialized at %s\n", *dataDir)
		}
	}
	if session == nil {
		session = server.OpenSession(sessOpts)
	}
	defer session.Close()

	// Roll cached pattern answers forward through each published delta so
	// standing queries stay warm across ingests (recompute-on-miss past
	// the maintenance budgets; see internal/serve/serve_maintain.go).
	stopPatternMaint := server.MaintainPatterns(context.Background(), session)
	defer stopPatternMaint()

	// The analytics tracker folds every published delta so GET /analytics
	// answers in O(1) regardless of corpus size.
	tracker := qkbfly.NewAnalyticsTracker(session, qkbfly.AnalyticsOptions{
		Counters: server.Counters(),
	})
	defer tracker.Close()

	handler := serve.NewHandler(server, serve.HandlerOptions{
		DefaultSource: "wikipedia",
		Answerer:      answerer,
		Session:       session,
		Analytics:     tracker,
		StartTime:     startTime,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "qkbflyd listening on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "server error: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "shutting down: draining in-flight requests...")
	// The analytics fold stops first, then the session: closing it ends
	// every /facts?follow= and /analytics?follow= stream, so the drain
	// below is not held open for the full timeout by long-lived followers.
	tracker.Close()
	session.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	if pstore != nil {
		// Drain the writeback queue, then seal the manifest with the final
		// content identity so the next boot can verify its warm restart.
		pstore.Flush()
		pstore.Seal(session.Snapshot().Identity())
		if err := pstore.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing durable store: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "durable store sealed at version %d\n", session.Snapshot().Version())
		}
	}
	snap := server.Stats()
	fmt.Fprintf(os.Stderr, "bye: %d query entries, %d shards, counters %v\n",
		snap.QueryEntries, snap.ShardEntries, snap.Counters)
}

// runFollower is the -follow mode: no world, no engine, no ingestion —
// just a replication follower serving verified reads.
func runFollower(addr, leader, dataDir string, retryBudget int, drain time.Duration) {
	startTime := time.Now()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	f := replica.New(replica.Options{
		Leader:      leader,
		RetryBudget: retryBudget,
		Logf:        logf,
	})
	if dataDir != "" {
		kb, ver, id, err := replica.Bootstrap(dataDir, logf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bootstrapping from %s: %v\n", dataDir, err)
			os.Exit(1)
		}
		f.Seed(kb, ver, id)
		fmt.Fprintf(os.Stderr, "bootstrapped from %s: version %d, %d facts\n",
			dataDir, ver, kb.Len())
	}

	// The serving layer runs without a construction backend: /kb and
	// /answer answer 503, everything else reads the replica.
	server := serve.New(nil, serve.Options{})
	handler := serve.NewHandler(server, serve.HandlerOptions{Replica: f, StartTime: startTime})

	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(rctx)
	}()

	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "qkbflyd following %s, listening on %s\n", leader, addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "server error: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "shutting down follower...")
	rcancel()
	<-done
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	st := f.Status()
	fmt.Fprintf(os.Stderr, "bye: verified through v%d (leader head v%d), counters %v\n",
		st.Version, st.LeaderHead, st.Counters)
}
