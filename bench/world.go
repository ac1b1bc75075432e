package main

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/nlp/depparse"
	"qkbfly/internal/search"
	"qkbfly/internal/stats"
)

// newsPerEvent is qkbflyd's -news default: articles per event in the index.
const newsPerEvent = 3

// scaledConfig is corpus.DefaultConfig with every population count
// multiplied by scale — the only difference between the benchmarked daemon
// and cmd/qkbflyd. Scale 8 gives about 5k entities, 4k background
// documents and, fully ingested, about 10^4 facts.
func scaledConfig(seed int64, scale int) corpus.Config {
	c := corpus.DefaultConfig()
	c.Seed = seed
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= scale
	}
	return c
}

// world is the background state both processes derive from (seed, scale):
// the child serves it, the parent generates inputs and reference answers
// from it. Built exactly the way cmd/qkbflyd/main.go builds it.
type world struct {
	w       *corpus.World
	sys     *qkbfly.System
	st      *stats.Stats
	idx     *search.Index
	elapsed time.Duration
}

func buildWorld(seed int64, scale int) *world {
	start := time.Now()
	w := corpus.NewWorld(scaledConfig(seed, scale))
	bg := w.BackgroundCorpus()
	pipe := clause.NewPipeline(w.Repo, depparse.Malt)
	st := stats.Build(corpus.Docs(bg), w.Repo, pipe)
	idx := search.New(corpus.Docs(append(bg, w.NewsDataset(newsPerEvent)...)))
	sys := qkbfly.New(qkbfly.Resources{
		Repo: w.Repo, Patterns: w.Patterns, Stats: st, Index: idx,
	}, qkbfly.DefaultConfig())
	return &world{w: w, sys: sys, st: st, idx: idx, elapsed: time.Since(start)}
}

// entityNames returns the distinct names of the repository (non-emerging)
// entities, sorted: the /kb query universe. The scaled world reuses names,
// so this is smaller than the entity count.
func (wd *world) entityNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, id := range wd.w.Order {
		e := wd.w.Entities[id]
		if e.Emerging || seen[e.Name] {
			continue
		}
		seen[e.Name] = true
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// tiedIdentity matches what distinguishes two entities of the same name:
// the "_(n)" suffix of a repeated repository name and the "new:" prefix of
// an emerging entity.
var tiedIdentity = regexp.MustCompile(`new:|_\(\d+\)`)

// tieInsensitive reduces a KB fingerprint to its set of facts with
// tiedIdentity removed and confidence and provenance dropped. The scaled
// world gives up to eight entities the same name and type; their candidate
// scores tie exactly, and which one wins (or whether the mention stays an
// emerging entity) differs from build to build, so two builds of the same
// documents agree on this set far more often than on the fingerprint. See
// README, first findings.
func tieInsensitive(fingerprint string) map[string]bool {
	set := map[string]bool{}
	for _, line := range strings.Split(fingerprint, "\n") {
		if i := strings.Index(line, "> conf="); strings.HasPrefix(line, "f ") && i > 0 {
			set[tiedIdentity.ReplaceAllString(line[:i+1], "")] = true
		}
	}
	return set
}

// tieTolerance is the share of compared facts by which a served KB may
// differ from a reference build of the same documents. tieInsensitive does
// not remove every tie: two entities of different names that share an alias
// (two people with one surname) tie as well, in an order fixed per process,
// so the daemon and this process can resolve one mention differently; that
// moves the handful of facts of one document. A fault in the window, the
// caches or the merge moves the facts of many.
const tieTolerance = 0.005

// tolerateTies records a mismatch when more than tieTolerance of the
// compared facts differ, and says so on standard error when fewer do.
func (r *run) tolerateTies(what string, differ, compared int, example string) {
	switch {
	case float64(differ) > tieTolerance*float64(compared):
		r.mismatch("%s: %d of %d facts differ from a direct build, e.g. %s", what, differ, compared, example)
	case differ > 0:
		fmt.Fprintf(os.Stderr, "bench: %s: %s: %d of %d facts differ from a direct build (tied candidates, tolerated), e.g. %s\n",
			r.cfg.workload, what, differ, compared, example)
	}
}

// ingestDoc is one document of a POST /ingest body.
type ingestDoc struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Source string `json:"source"`
	Text   string `json:"text"`
}

// baseDocs returns every wiki and news document of the world in a seeded
// order: the session preload of query_mixed and the head of the
// ingest_follow stream.
func (wd *world) baseDocs(rng *rand.Rand) []ingestDoc {
	gds := append(wd.w.WikiDataset(1<<30), wd.w.NewsDataset(newsPerEvent)...)
	out := make([]ingestDoc, len(gds))
	for i, gd := range gds {
		d := gd.Doc
		out[i] = ingestDoc{ID: d.ID, Title: d.Title, Source: d.Source, Text: d.Text}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// variantDocs generates a never-repeating stream: re-phrased articles about
// the repository entities under fresh ids, so neither the session nor the
// shard cache has seen any of them.
type variantDocs struct {
	wd  *world
	ids []string
	n   int
}

func (wd *world) variants(rng *rand.Rand) *variantDocs {
	v := &variantDocs{wd: wd}
	for _, id := range wd.w.Order {
		if !wd.w.Entities[id].Emerging {
			v.ids = append(v.ids, id)
		}
	}
	rng.Shuffle(len(v.ids), func(i, j int) { v.ids[i], v.ids[j] = v.ids[j], v.ids[i] })
	return v
}

func (v *variantDocs) next() ingestDoc {
	id := v.ids[v.n%len(v.ids)]
	d := v.wd.w.ArticleVariant(id, 2000+v.n/len(v.ids), false).Doc
	v.n++
	return ingestDoc{ID: "variant:" + strconv.Itoa(v.n) + ":" + id, Title: d.Title, Source: d.Source, Text: d.Text}
}
