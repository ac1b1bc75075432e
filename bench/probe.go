package main

import (
	"context"
	"time"

	"qkbfly/internal/canon"
	"qkbfly/internal/densify"
	"qkbfly/internal/engine"
	"qkbfly/internal/graph"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/pipeline"
)

// The layer probe runs in the child at the end of a traced run. It calls
// each layer's public functions directly, on the snapshot the workload
// ended with, one span per call, so that a layer the workload reaches only
// through several others still has a number of its own. Cheap calls are
// made probeCalls times; a call that reads the whole KB is made
// probeScans times, because at 10^4 facts two hundred of them would take
// longer than the workload.
const (
	probeCalls = 200
	probeScans = 20
)

// probeRequest is the POST /bench/probe body. Patterns, per class, are the
// instantiated query patterns of query_mixed; other workloads send none and
// the query probes are skipped.
type probeRequest struct {
	Patterns map[string][]string `json:"patterns,omitempty"`
}

type prober struct {
	d   *daemon
	ctx context.Context
	out map[string]metric
	// docs are fresh re-phrasings of repository articles (a variant range
	// no workload uses); segs are their sealed shards, one per document.
	docs []*nlp.Document
	segs []*store.Segment
	next int // next unused document
}

func (d *daemon) probe(ctx context.Context, req probeRequest) map[string]metric {
	d.tr.on.Store(true)
	defer d.tr.on.Store(false)
	p := &prober{d: d, ctx: ctx, out: map[string]metric{}}
	// Every k-th repository entity, so the documents span all entity types
	// the way the background corpus does.
	w := d.wd.w
	var ids []string
	for _, id := range w.Order {
		if !w.Entities[id].Emerging {
			ids = append(ids, id)
		}
	}
	for i := 0; i < 2*probeCalls; i++ {
		doc := w.ArticleVariant(ids[i*len(ids)/(2*probeCalls)], 9000, false).Doc
		p.docs = append(p.docs, &nlp.Document{ID: "probe:" + doc.ID, Title: doc.Title, Source: doc.Source, Text: doc.Text})
	}
	p.pipeline()
	p.store()
	p.query(req.Patterns)
	p.session(req.Patterns)
	return p.out
}

// time calls fn `calls` times under one span each and reports the median
// as name, in microseconds.
func (p *prober) time(name string, calls int, fn func(i int)) {
	ds := make([]time.Duration, calls)
	for i := range ds {
		sp, _ := p.d.tr.start(p.ctx, "probe."+name, nil)
		t := time.Now()
		fn(i)
		ds[i] = time.Since(t)
		p.d.tr.end(sp)
	}
	p.setMedian(name, ds)
}

func (p *prober) setMedian(name string, ds []time.Duration) {
	if len(ds) > 0 {
		p.out[name] = metric{Value: us(medianDuration(ds)), Unit: "us", Calls: len(ds)}
	}
}

func (p *prober) setMean(name string, ds []time.Duration) {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	p.out[name] = metric{Value: us(sum) / float64(len(ds)), Unit: "us", Calls: len(ds)}
}

// pipeline runs the four construction stages over probeCalls documents the
// way engine's worker does, one timer per stage, then seals and merges the
// shards. It leaves the sealed shards in p.segs for the store probes.
func (p *prober) pipeline() {
	wd := p.d.wd
	builder := graph.NewBuilder(wd.w.Repo)
	builder.IncludePronouns = true
	cn := canon.New(wd.w.Patterns, wd.w.Repo)
	sc := pipeline.NewScratch()
	var scorer *densify.Scorer
	var annotate, build, solve, populate, seal []time.Duration
	shards := make([]*store.KB, 0, probeCalls)
	for _, doc := range p.docs[:probeCalls] {
		doc = doc.Clone()
		t := time.Now()
		clauses := wd.sys.Pipeline().AnnotateDocumentScratch(doc, sc.Annotate)
		annotate = append(annotate, time.Since(t))

		t = time.Now()
		g := builder.BuildScratch(doc, clauses, sc.Graph)
		build = append(build, time.Since(t))

		t = time.Now()
		if scorer == nil {
			scorer = densify.NewScorer(wd.st, wd.w.Repo, densify.DefaultParams(), doc)
		} else {
			scorer.Reset(doc)
		}
		res := densify.DensifyScratch(g, scorer, sc.Densify)
		solve = append(solve, time.Since(t))

		t = time.Now()
		shard := store.New()
		cn.PopulateScratch(shard, doc, g, res, sc.Canon)
		populate = append(populate, time.Since(t))
		shards = append(shards, shard)

		t = time.Now()
		p.segs = append(p.segs, store.SealSegment(shard, doc.ID))
		seal = append(seal, time.Since(t))
	}
	p.next = probeCalls
	// Means, not medians: a few long articles carry most of the cost, and
	// the engine's own per-stage accounting is a sum over documents too.
	p.setMean("nlp.annotate_probe_us", annotate)
	p.setMean("graph.build_probe_us", build)
	p.setMean("densify.solve_probe_us", solve)
	p.setMean("canon.populate_probe_us", populate)
	p.setMean("engine.seal_us_per_doc", seal)
	// /kb merges size=8 shards per request.
	p.time("engine.merge_shards_us", probeCalls/8, func(i int) { engine.MergeShards(shards[8*i : 8*i+8]) })
}

// freshDoc returns a document no earlier probe has ingested.
func (p *prober) freshDoc() *nlp.Document {
	d := p.docs[p.next%len(p.docs)]
	p.next++
	return d.Clone()
}
