package corpus_test

import (
	"testing"

	"qkbfly/internal/corpus"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/search"
	"qkbfly/internal/stats"
)

// BenchmarkWorldStartup times each phase of the daemon's start-up over
// the ×8 world the HTTP benchmark serves (about 4,000 background
// documents): the world itself, the background corpus, the statistics
// over it, the news stories, and the retrieval index over both. Each
// sub-benchmark times its own phase only.
func BenchmarkWorldStartup(b *testing.B) {
	cfg := corpus.DefaultConfig()
	for _, n := range []*int{
		&cfg.People, &cfg.Cities, &cfg.Clubs, &cfg.Bands, &cfg.Companies,
		&cfg.Universities, &cfg.Charities, &cfg.Parties, &cfg.Films, &cfg.Albums,
		&cfg.Series, &cfg.Awards, &cfg.Events,
	} {
		*n *= 8
	}
	const newsPerEvent = 3 // qkbflyd's -news default
	w := corpus.NewWorld(cfg)
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)

	b.Run("NewWorld", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corpus.NewWorld(cfg)
		}
	})
	b.Run("BackgroundCorpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.BackgroundCorpus()
		}
	})
	b.Run("stats.Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			docs := corpus.Docs(w.BackgroundCorpus()) // Build annotates them in place
			b.StartTimer()
			stats.Build(docs, w.Repo, pipe)
		}
	})
	b.Run("NewsDataset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.NewsDataset(newsPerEvent)
		}
	})
	b.Run("search.New", func(b *testing.B) {
		docs := corpus.Docs(append(w.BackgroundCorpus(), w.NewsDataset(newsPerEvent)...))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search.New(docs)
		}
	})
}
