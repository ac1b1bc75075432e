// Command qkbfly is the §6 demo as a CLI: it builds an on-the-fly KB for a
// query over the synthetic world's Wikipedia/news collections and supports
// the subject/predicate/object and Type: searches of Figures 3 and 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/search"
	"qkbfly/internal/serve"
	"qkbfly/internal/stats"
)

func main() {
	var (
		query   = flag.String("query", "", "entity-centric query, e.g. an entity name")
		source  = flag.String("corpus", "wikipedia", "input source: wikipedia or news")
		size    = flag.Int("size", 1, "number of input documents")
		subject = flag.String("subject", "", "subject filter (substring or Type:X)")
		pred    = flag.String("predicate", "", "predicate filter (substring)")
		object  = flag.String("object", "", "object filter (substring or Type:X)")
		tau     = flag.Float64("tau", 0.0, "confidence threshold")
		limit   = flag.Int("limit", 30, "max facts to print")
		seed    = flag.Int64("seed", 1, "world seed")
		par     = flag.Int("parallelism", 0, "engine worker-pool size (0 = one per CPU)")
		timings = flag.Bool("timings", false, "print per-stage engine timings")
		cache   = flag.Bool("cache", false, "route the build through the serving layer (query + shard cache); repeat with -repeat to see warm hits")
		repeat  = flag.Int("repeat", 1, "number of times to serve the query (with -cache, runs 2+ hit the cache)")
		incs    = flag.Int("increments", 1, "feed the retrieved documents through a session in k increments (shows versioned incremental ingestion)")
	)
	flag.Parse()
	if *size < 1 {
		fmt.Fprintln(os.Stderr, "-size must be at least 1")
		flag.Usage()
		os.Exit(2)
	}

	// ^C cancels the build; the KB over the already-processed documents is
	// still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := corpus.DefaultConfig()
	cfg.Seed = *seed
	fmt.Fprintln(os.Stderr, "generating world and background statistics...")
	w := corpus.NewWorld(cfg)
	bg := w.BackgroundCorpus()
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(bg), w.Repo, pipe)
	idx := search.New(corpus.Docs(append(bg, w.NewsDataset(3)...)))

	sys := qkbfly.New(qkbfly.Resources{
		Repo: w.Repo, Patterns: w.Patterns, Stats: st, Index: idx,
	}, qkbfly.DefaultConfig())

	if *query == "" {
		// Pick a default query: the first actor of the world.
		*query = w.Entities[w.EntitiesOfType("ACTOR")[0]].Name
		fmt.Fprintf(os.Stderr, "no -query given; using %q\n", *query)
	}
	var (
		kb   *store.KB
		docs []*nlp.Document
		bs   *qkbfly.BuildStats
		err  error
	)
	if *cache {
		srv := serve.New(sys, serve.Options{})
		var res *serve.Result
		for i := 0; i < max(*repeat, 1); i++ {
			res, err = srv.KB(ctx, *query, *source, *size, qkbfly.WithParallelism(*par))
			if res != nil {
				fmt.Fprintf(os.Stderr, "serve pass %d: cache_hit=%t elapsed=%v\n",
					i+1, res.CacheHit, res.Stats.Elapsed)
			}
		}
		kb, docs, bs = res.KB, res.Docs, res.Stats
		if *timings {
			snap := srv.Stats()
			fmt.Fprintf(os.Stderr, "serving counters: %v\n", snap.Counters)
		}
	} else if *incs > 1 {
		// Incremental ingestion demo: retrieve once, then feed the
		// documents through a session in k increments, printing each
		// version as it lands — the same final KB as a one-shot build.
		docs = sys.Retrieve(*query, *source, *size)
		sess := sys.OpenSession(qkbfly.SessionOptions{
			BuildOptions: []qkbfly.Option{qkbfly.WithParallelism(*par)},
		})
		total := &qkbfly.BuildStats{Parallelism: 1, PerDocElapsed: []time.Duration{}}
		var snap *qkbfly.Snapshot
		for i := 0; i < *incs && err == nil; i++ {
			start, end := i*len(docs)/(*incs), (i+1)*len(docs)/(*incs)
			if start == end {
				continue
			}
			var ibs *qkbfly.BuildStats
			snap, ibs, err = sess.Ingest(ctx, docs[start:end])
			if err != nil {
				fmt.Fprintf(os.Stderr, "ingest %d: interrupted after %d of %d docs (%v)\n",
					i+1, len(ibs.PerDocElapsed), end-start, err)
			} else {
				fmt.Fprintf(os.Stderr, "ingest %d: +%d docs -> version %d, %d facts (%v)\n",
					i+1, len(ibs.PerDocElapsed), snap.Version(), snap.KB().Len(), ibs.Elapsed)
			}
			total.Documents += ibs.Documents
			total.Sentences += ibs.Sentences
			total.Clauses += ibs.Clauses
			total.StageElapsed.Add(ibs.StageElapsed)
			total.PerDocElapsed = append(total.PerDocElapsed, ibs.PerDocElapsed...)
			total.Elapsed += ibs.Elapsed
			total.Parallelism = ibs.Parallelism
		}
		if snap == nil { // empty retrieval: no increment ever folded
			snap = sess.Snapshot()
		}
		kb, bs = snap.KB(), total
		sess.Close()
	} else {
		kb, docs, bs, err = sys.BuildKBForQueryContext(ctx, *query, *source, *size,
			qkbfly.WithParallelism(*par))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "build interrupted (%v); showing partial KB\n", err)
	}
	fmt.Printf("LOG:\n")
	for i, d := range docs {
		fmt.Printf("  %d - %s (%s)\n", i+1, d.Title, d.ID)
	}
	fmt.Printf("built on-the-fly KB: %d facts, %d entities (%d emerging) in %v (%d workers)\n",
		kb.Len(), kb.EntityCount(), kb.EmergingCount(), bs.Elapsed, bs.Parallelism)
	if *timings {
		st := bs.StageElapsed
		fmt.Printf("stage timings (CPU): annotate %v, graph %v, densify %v, canonicalize %v, merge %v\n",
			st.Annotate, st.Graph, st.Densify, st.Canonicalize, st.Merge)
	}

	results := kb.Search(store.Query{
		Subject: *subject, Predicate: *pred, Object: *object, MinConf: *tau,
	})
	shown := len(results)
	if shown > *limit {
		shown = *limit
	}
	fmt.Printf("show %d out of %d facts:\n", shown, kb.Len())
	for i, f := range results {
		if i >= *limit {
			break
		}
		fmt.Printf("  %.2f %s\n", f.Confidence, f.String())
	}
}
