// Command experiments regenerates every table and figure of the paper's
// evaluation (§7). Select individual experiments with -table / -figure, or
// run everything with -all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/experiments"
	"qkbfly/internal/sched"
	"qkbfly/internal/tuning"
)

func main() {
	var (
		table    = flag.String("table", "", "comma-separated table numbers: 3,4,5,6,7,9")
		figure   = flag.String("figure", "", "figure numbers: 5")
		all      = flag.Bool("all", false, "run every experiment")
		small    = flag.Bool("small", false, "use the small world (fast; for smoke tests)")
		seed     = flag.Int64("seed", 1, "world seed")
		docs     = flag.Int("docs", 80, "documents for the Wikipedia-style dataset")
		sample   = flag.Int("sample", 200, "assessment sample size")
		tune     = flag.Bool("tune", false, "run the §4 hyper-parameter tuning")
		ablation = flag.Bool("ablation", false, "run the DESIGN.md ablation studies")
		sweep    = flag.Bool("sweep", false, "run the tau sweep as scheduler jobs over a pinned session snapshot")
		par      = flag.Int("parallelism", 0, "engine worker-pool size for KB builds (0 = one per CPU)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		if t != "" {
			want["t"+t] = true
		}
	}
	for _, f := range strings.Split(*figure, ",") {
		if f != "" {
			want["f"+f] = true
		}
	}
	if *all {
		for _, k := range []string{"t3", "t4", "t5", "t6", "t7", "t9", "f5", "tune", "ablation"} {
			want[k] = true
		}
	}
	if *tune {
		want["tune"] = true
	}
	if *ablation {
		want["ablation"] = true
	}
	if *sweep {
		want["sweep"] = true
	}
	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all or -table 3,4,5,6,7,9 / -figure 5")
		os.Exit(2)
	}

	cfg := corpus.DefaultConfig()
	if *small {
		cfg = corpus.SmallConfig()
	}
	cfg.Seed = *seed

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building world, background corpus and statistics...\n")
	env := experiments.NewEnv(cfg, 3)
	env.Parallelism = *par
	fmt.Fprintf(os.Stderr, "fixture ready in %v (%d entities, %d facts, %d background docs)\n",
		time.Since(start).Round(time.Millisecond), len(env.World.Order), len(env.World.Facts), len(env.BG))

	if want["t3"] || want["t4"] {
		t3, t4 := experiments.RunTable3And4(env, *docs, *sample)
		if want["t3"] {
			fmt.Println(t3)
		}
		if want["t4"] {
			fmt.Println(t4)
		}
	}
	if want["t5"] {
		fmt.Println(experiments.RunTable5(env, 500, *sample))
	}
	if want["t6"] {
		newsPer := 1
		fmt.Println(experiments.RunTable6(env, *docs/2, newsPer, env.World.Config.WikiaPages, *sample))
	}
	if want["t7"] || want["f5"] {
		evalDocs := 200
		if *small {
			evalDocs = 40
		}
		fmt.Println(experiments.RunSpouse(env, 400, evalDocs, []int{10, 25, 50, 100, 150, 250}))
	}
	if want["t9"] {
		fmt.Println(experiments.RunTable9(env, 120))
	}
	if want["ablation"] {
		fmt.Println(experiments.RunAblation(env, *docs/2, *sample))
	}
	if want["sweep"] {
		// The sweep runs over a PINNED snapshot through the background
		// scheduler: every tau point reads the same immutable version,
		// regardless of what the live session ingests meanwhile.
		sys := env.System(qkbfly.Joint, qkbfly.Greedy)
		sess := sys.OpenSession(qkbfly.SessionOptions{})
		if _, _, err := sess.Ingest(context.Background(),
			corpus.Docs(env.World.WikiDataset(*docs/2))); err != nil {
			fmt.Fprintf(os.Stderr, "sweep ingest: %v\n", err)
			os.Exit(1)
		}
		sc := sched.New(sched.Options{Workers: 2})
		res, err := experiments.RunSnapshotSweep(context.Background(), sc, sess.Snapshot(),
			experiments.SweepOptions{Assessor: env.Assessor, SampleSize: *sample})
		sc.Close()
		sess.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
	}
	if want["tune"] {
		ann := tuning.AnnotationsFromWorld(env.World, 203)
		res := tuning.Tune(ann, env.Stats, env.World.Repo)
		fmt.Printf("Hyper-parameter tuning (§4, L-BFGS over %d ambiguous annotations):\n", res.Annotations)
		fmt.Printf("  alpha1 (prior) = %.3f  alpha2 (sim) = %.3f  alpha3 (coh) = %.3f  alpha4 (ts) = %.3f\n",
			res.Alpha[0], res.Alpha[1], res.Alpha[2], res.Alpha[3])
		fmt.Printf("  log-likelihood %.2f after %d iterations\n\n", res.LogLik, res.Iterations)
	}
	fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
}
