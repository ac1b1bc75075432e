// Quickstart: build an on-the-fly knowledge base for one entity-centric
// query and print the canonicalized facts — the minimal end-to-end use of
// the QKBfly public API.
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
	"qkbfly/internal/search"
	"qkbfly/internal/stats"
)

func main() {
	// 1. A world to extract from. In a real deployment this would be your
	//    document collection; here the synthetic world stands in for
	//    Wikipedia plus a news stream.
	world := corpus.NewWorld(corpus.SmallConfig())

	// 2. Background repositories (§2.2): the entity repository (E) and
	//    pattern repository (P) come with the world; the statistics (S)
	//    are computed from the background corpus (C).
	background := world.BackgroundCorpus()
	pipe := clause.NewPipeline(world.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(background), world.Repo, pipe)
	index := search.New(corpus.Docs(append(background, world.NewsDataset(2)...)))

	// 3. Assemble the system.
	sys := qkbfly.New(qkbfly.Resources{
		Repo:     world.Repo,
		Patterns: world.Patterns,
		Stats:    st,
		Index:    index,
	}, qkbfly.DefaultConfig())

	// 4. Query-driven KB construction: pick the world's first actor. The
	//    build runs on the concurrent staged engine — one worker per CPU
	//    here — and is cancellable through the context.
	query := world.Entities[world.EntitiesOfType("ACTOR")[0]].Name
	fmt.Printf("query: %q\n\n", query)
	kb, docs, bs, err := sys.BuildKBForQueryContext(context.Background(), query, "wikipedia", 1,
		qkbfly.WithParallelism(runtime.NumCPU()))
	if err != nil {
		fmt.Println("build cancelled:", err)
		return
	}

	fmt.Printf("processed %d document(s) in %v on %d worker(s): %d facts, %d entities (%d emerging)\n",
		len(docs), bs.Elapsed, bs.Parallelism, kb.Len(), kb.EntityCount(), kb.EmergingCount())
	fmt.Printf("stage time: annotate %v, graph %v, densify %v, canonicalize %v\n\n",
		bs.StageElapsed.Annotate, bs.StageElapsed.Graph, bs.StageElapsed.Densify,
		bs.StageElapsed.Canonicalize)

	// 5. Inspect the on-the-fly KB.
	for _, f := range kb.Facts() {
		fmt.Printf("  %.2f  %s\n", f.Confidence, f.String())
	}

	// 6. Distill high-quality facts with the paper's τ = 0.5 threshold.
	fmt.Printf("\nhigh-confidence facts (τ = 0.5): %d\n", len(sys.FilterTau(kb)))

	// 7. Structured search, like the demo UI of §6.
	fmt.Println("\nType:PERSON subjects:")
	for _, f := range kb.Search(store.Query{Subject: "Type:PERSON"}) {
		fmt.Printf("  %s\n", f.String())
	}
}
