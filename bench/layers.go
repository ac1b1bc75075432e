package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// layersFromStats turns the /stats counter deltas between the scrape
// before the warm-up and the scrape after the window into per-layer
// counts and ratios. These are read the way an operator would read them,
// so they are available in untraced runs too.
func (r *run) layersFromStats(d statsSnap) {
	c := d.Counters
	ratio := func(name string, part, rest int64) {
		v := 0.0
		if part+rest > 0 {
			v = float64(part) / float64(part+rest)
		}
		r.set(name, "ratio", v, int(part+rest))
	}
	count := func(name string, v int64) { r.set(name, "count", float64(v), 0) }

	ratio("serve.query_cache_hit_ratio", c["query_hits"], c["query_misses"])
	ratio("serve.shard_cache_hit_ratio", c["shard_hits"], c["shard_misses"])
	ratio("serve.run_cache_hit_ratio", c["run_hits"], c["run_misses"])
	ratio("serve.pattern_cache_hit_ratio", c["pattern_hits"], c["pattern_misses"])
	ratio("serve.pattern_maintained_ratio", c["pattern_maintained"], c["pattern_maintain_fallbacks"])
	count("serve.query_evictions", c["query_evictions"])
	count("serve.shard_evictions", c["shard_evictions"])
	count("serve.singleflight_joins", c["inflight_joins"])
	count("engine.docs_built", c["engine_docs"])
	count("session.watcher_drops", c["session_watch_drops"]+c["session_pattern_watch_drops"]+c["session_delta_watch_drops"])
	count("session.compact_backstops", c["session_compact_backstops"])
	ratio("query.pos_scan_ratio", c["index_pos_scans"], c["index_full_scans"])

	// One maintenance worker; every job it runs in this wiring is a
	// compaction, so the jobs not adopted are wasted work.
	r.set("sched.busy_ratio", "ratio", float64(c["sched_busy_ns"])/float64(d.elapsed.Nanoseconds()), int(c["sched_jobs_run"]))
	count("sched.jobs_run", c["sched_jobs_run"])
	r.set("sched.stall_ms", "ms", float64(c["sched_stall_ns"])/1e6, 0)
	count("maint.compactions_adopted", c["maint_compactions_adopted"])
	ratio("maint.adopted_ratio", c["maint_compactions_adopted"], c["sched_jobs_run"]-c["maint_compactions_adopted"])
	count("analytics.deltas_applied", c["analytics_deltas_applied"])

	r.set("persist.blob_bytes_written", "B", float64(d.Persist["blob_bytes"]), int(d.Persist["blobs_written"]))
	count("persist.manifest_records", d.Persist["manifest_records"])
}

// medianUS sets name to the median of the durations, in microseconds.
func (r *run) medianUS(name string, ds []time.Duration) {
	if len(ds) > 0 {
		r.set(name, "us", us(medianDuration(ds)), len(ds))
	}
}

// medianDuration sorts ds and returns its median.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// layersFromSpans derives the span-based layer metrics of a traced run.
// A layer's self time is its span minus what its child spans cover.
func (r *run) layersFromSpans(spans []span) {
	self := selfTimes(spans)
	byName := map[string][]*span{}
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], &spans[i])
	}
	durs := func(name string) []time.Duration {
		out := make([]time.Duration, 0, len(byName[name]))
		for _, s := range byName[name] {
			out = append(out, s.dur())
		}
		return out
	}
	sum := func(name, attr string) (total float64) {
		for _, s := range byName[name] {
			total += s.Attrs[attr]
		}
		return total
	}

	for _, class := range []string{"kb", "ingest", "query"} {
		hs := byName["http/"+class]
		selfs := make([]time.Duration, 0, len(hs))
		var bytes []float64
		for _, s := range hs {
			selfs = append(selfs, self[s.ID])
			bytes = append(bytes, s.Attrs["bytes"])
		}
		r.medianUS("serve.handler_self_us."+class, selfs)
		if class != "ingest" && len(hs) > 0 {
			r.set("serve.response_bytes."+class, "B", medianOf(bytes), len(hs))
		}
	}
	r.medianUS("search.retrieve_us", durs("search.retrieve"))
	if n := len(byName["search.retrieve"]); n > 0 {
		r.set("search.docs_per_query", "count", sum("search.retrieve", "docs")/float64(n), n)
	}
	r.medianUS("engine.build_us", durs("engine.build"))
	if docs := sum("engine.build", "docs"); docs > 0 {
		n := int(docs)
		for _, st := range [][2]string{
			{"nlp.annotate_us_per_doc", "annotate_ns"}, {"graph.build_us_per_doc", "graph_ns"},
			{"densify.solve_us_per_doc", "densify_ns"}, {"canon.populate_us_per_doc", "canon_ns"},
		} {
			r.set(st[0], "us", sum("engine.build", st[1])/1e3/docs, n)
		}
		r.set("nlp.sentences_per_doc", "count", sum("engine.build", "sentences")/docs, n)
		r.set("nlp.clauses_per_doc", "count", sum("engine.build", "clauses")/docs, n)
		r.set("densify.edges_removed_per_doc", "count", sum("engine.build", "edges_removed")/docs, n)
		// Stage time is summed over workers: 1 means every worker was busy
		// in a stage for the whole build.
		var stage, capacity float64
		for _, s := range byName["engine.build"] {
			a := s.Attrs
			stage += a["annotate_ns"] + a["graph_ns"] + a["densify_ns"] + a["canon_ns"]
			capacity += float64(s.End-s.Start) * a["workers"]
		}
		r.set("engine.parallel_efficiency", "ratio", stage/capacity, len(byName["engine.build"]))
	}
	r.medianUS("persist.publish_us", durs("persist.publish"))
	r.medianUS("store.merge_segments_us", durs("store.merge_segments"))
	if n := len(byName["http/ingest"]); n > 0 {
		r.set("store.merge_segments_per_ingest", "count", float64(len(byName["store.merge_segments"]))/float64(n), n)
	}
}

// ingestSelfFromSpans reads the probe's direct Session.Ingest calls: the
// call's span minus the build and publish spans under it is what the
// session itself costs per version (lock, append, diff, history, fan-out).
func (r *run) ingestSelfFromSpans(spans []span) {
	self := selfTimes(spans)
	var out []time.Duration
	for i := range spans {
		if spans[i].Name == "probe.session.ingest" {
			out = append(out, self[spans[i].ID])
		}
	}
	r.medianUS("session.ingest_self_us", out)
}

// finishTrace ends a traced run: it drains the child's spans, runs the
// layer probe on the state the workload ended with, derives the per-layer
// metrics and writes every span of both processes to
// trace_<workload>.json under the output directory (bench/out). In an
// untraced run it does nothing.
func (r *run) finishTrace(probe probeRequest) error {
	if r.tr == nil {
		return nil
	}
	body, err := json.Marshal(probe)
	if err != nil {
		return err
	}
	if err := r.drainChildSpans(); err != nil {
		return err
	}
	all := append(r.spans, r.tr.drain()...)
	r.layersFromSpans(all)

	b, err := r.c.send(r.c.ctl, "POST", "/bench/probe", body, 0)
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	var probed map[string]metric
	if err := json.Unmarshal(b, &probed); err != nil {
		return err
	}
	for name, m := range probed {
		r.metrics[name] = m
	}
	r.spans = nil
	if err := r.drainChildSpans(); err != nil {
		return err
	}
	r.ingestSelfFromSpans(r.spans)
	return writeJSON(filepath.Join(r.cfg.outDir, "trace_"+r.cfg.workload+".json"), append(all, r.spans...))
}

// drainChildSpans moves the child's spans here; call it before the child
// is killed.
func (r *run) drainChildSpans() error {
	var spans []span
	if err := r.c.getJSON("/bench/spans", &spans); err != nil {
		return err
	}
	r.spans = append(r.spans, spans...)
	return nil
}
