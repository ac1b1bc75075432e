// Newsroom: the journalist workflow the paper motivates (§1, §6) — monitor
// emerging events, build a KB over fresh news stories, and surface facts
// about entities that no static knowledge base knows yet.
//
// This version uses the session API: the newsroom holds one long-lived
// qkbfly.Session with a rolling document window, feeds each event's
// stories in as they "arrive", watches new facts stream out, and queries
// immutable snapshots while ingestion continues — instead of rebuilding a
// KB from scratch per query.
package main

import (
	"context"
	"fmt"
	"runtime"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/query"
	"qkbfly/internal/search"
	"qkbfly/internal/stats"
)

func main() {
	world := corpus.NewWorld(corpus.SmallConfig())
	background := world.BackgroundCorpus()
	pipe := clause.NewPipeline(world.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(background), world.Repo, pipe)

	// The index holds the news stream (three stories per event).
	news := world.NewsDataset(3)
	index := search.New(corpus.Docs(append(background, news...)))

	sys := qkbfly.New(qkbfly.Resources{
		Repo: world.Repo, Patterns: world.Patterns, Stats: st, Index: index,
	}, qkbfly.DefaultConfig())

	// One long-lived session for the whole newsroom. The rolling window
	// keeps the KB focused on the freshest stories; τ comes from the
	// system config (0.5), so the watcher only sees distilled facts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := sys.OpenSession(qkbfly.SessionOptions{
		BuildOptions: []qkbfly.Option{qkbfly.WithParallelism(runtime.NumCPU())},
		MaxDocuments: 9, // three events' worth of stories
	})
	defer sess.Close()

	// A background watcher counts the live feed — the same facts the
	// per-event replay below prints deterministically.
	live := sess.Watch(ctx)
	watched := make(chan int)
	go func() {
		n := 0
		for range live {
			n++
		}
		watched <- n
	}()

	// A standing filtered watch: the desk tracks confident fully-bound
	// facts as a pattern query. Every published version evaluates the
	// pattern against that version's delta only (the engine seeds the
	// query with the changed facts), so each slide costs work
	// proportional to what changed — the query is never re-run.
	standing, err := query.Parse("?who ?rel ?what")
	if err != nil {
		panic(err)
	}
	standing.Tau = 0.7
	matches := sess.WatchPattern(ctx, standing)
	// Matches are evaluated on the subscription's side of the feed and
	// arrive after Ingest has returned, so a collector tallies them per
	// version and the summary prints once the session has closed.
	type tally struct {
		sample []string
		total  int
	}
	matched := make(chan map[uint64]*tally)
	go func() {
		byVersion := map[uint64]*tally{}
		for ev := range matches {
			t := byVersion[ev.Version]
			if t == nil {
				t = &tally{}
				byVersion[ev.Version] = t
			}
			t.total++
			if len(t.sample) < 2 {
				t.sample = append(t.sample, fmt.Sprintf("%s %s %s",
					ev.Row.Bindings["who"], ev.Row.Bindings["rel"].Literal, ev.Row.Bindings["what"]))
			}
		}
		matched <- byVersion
	}()

	// Stories arrive event by event; each ingest pushes only the new
	// documents' segments into the session's merge tree and publishes
	// exactly one version — even when the window slides, the survivors
	// and the increment land together, and the version's key-based diff
	// (store.Diff classes) says precisely what changed.
	for i := range world.Events {
		ev := &world.Events[i]
		if i >= 5 {
			break
		}
		q := ev.Queries[0]
		docs := sys.Retrieve(q, "news", 3)
		before := sess.Version()
		snap, bs, err := sess.Ingest(ctx, docs)
		if err != nil {
			fmt.Printf("== event %d (%s): ingest failed: %v\n", ev.ID, ev.Kind, err)
			continue
		}
		fmt.Printf("== event %d (%s): %q +%d stories -> version %d, %d docs in window, %d facts (%v)\n",
			ev.ID, ev.Kind, q, len(bs.PerDocElapsed), snap.Version(),
			sess.DocCount(), snap.KB().Len(), bs.Elapsed)
		if snap.Version() != before+1 {
			fmt.Printf("   BUG: sliding ingest published %d versions\n", snap.Version()-before)
		}
		if deltas, _, ok := sess.DeltaSince(before); ok {
			for _, d := range deltas {
				if len(d.Removed) > 0 || len(d.Upgraded) > 0 {
					fmt.Printf("   window slid: +%d facts, -%d rolled out, %d winners changed\n",
						len(d.Added), len(d.Removed), len(d.Upgraded))
				}
			}
		}

		// Replay exactly what this event added (versions after `before`),
		// highlighting emerging entities a static KB cannot contain.
		events, _, ok := sess.FactsSince(before)
		if !ok {
			events = nil // horizon passed (not with default history limits)
		}
		for _, e := range events {
			rec := snap.KB().Entity(e.Fact.Subject.EntityID)
			switch {
			case rec != nil && rec.Emerging:
				fmt.Printf("   v%d EMERGING %s\n", e.Version, e.Fact.String())
			case e.Fact.Confidence >= 0.5:
				fmt.Printf("   v%d %.2f %s\n", e.Version, e.Fact.Confidence, e.Fact.String())
			}
		}
	}

	// The dashboard can keep querying old snapshots while new stories
	// land; the final snapshot answers the cross-event question.
	snap := sess.Snapshot()
	persons := snap.KB().Search(store.Query{Subject: "Type:PERSON", MinConf: 0.5})
	fmt.Printf("== window now at version %d: %d facts, %d about persons\n",
		snap.Version(), snap.KB().Len(), len(persons))

	sess.Close() // published versions drain to both subscribers, then their channels close
	fmt.Printf("== watcher saw %d distilled facts stream in live\n", <-watched)
	byVersion := <-matched
	for v := uint64(1); v <= snap.Version(); v++ {
		t := byVersion[v]
		if t == nil {
			continue
		}
		for _, m := range t.sample {
			fmt.Printf("   standing v%d match: %s\n", v, m)
		}
		if more := t.total - len(t.sample); more > 0 {
			fmt.Printf("   standing watch: +%d more matches in v%d\n", more, v)
		}
	}
}
