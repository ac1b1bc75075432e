package main

// decl declares one metric: BENCHMARK.json lists the same names and units
// (a test compares the two), and the one-line result a run prints carries
// exactly these.
type decl struct{ name, unit string }

// endToEnd is what a user of the daemon feels, reported by every workload
// for the request class it exists to measure: GET /kb on kb_cold and
// kb_hot, POST /ingest on ingest_follow, GET /query on query_mixed.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer lists the metrics of single layers, in README order. A metric a
// workload does not exercise is reported as 0 with no calls. The first
// block holds the user-visible numbers that only one workload has and that
// therefore cannot be end-to-end metrics of all four.
var perLayer = []decl{
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"kb_docs_per_s", "docs/s"},
	{"ingest_docs_per_s", "docs/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p95_ms", "ms"},
	{"follow_lag_p50_ms", "ms"},
	{"follow_lag_p95_ms", "ms"},
	{"reopen_ms", "ms"},
	{"disk_bytes_per_fact", "B"},
	{"failed_ratio", "ratio"},

	{"search.retrieve_us", "us"},
	{"search.docs_per_query", "count"},

	{"nlp.annotate_us_per_doc", "us"},
	{"graph.build_us_per_doc", "us"},
	{"densify.solve_us_per_doc", "us"},
	{"canon.populate_us_per_doc", "us"},
	{"nlp.annotate_probe_us", "us"},
	{"graph.build_probe_us", "us"},
	{"densify.solve_probe_us", "us"},
	{"canon.populate_probe_us", "us"},
	{"nlp.sentences_per_doc", "count"},
	{"nlp.clauses_per_doc", "count"},
	{"densify.edges_removed_per_doc", "count"},

	{"engine.build_us", "us"},
	{"engine.docs_built", "count"},
	{"engine.parallel_efficiency", "ratio"},
	{"engine.seal_us_per_doc", "us"},
	{"engine.merge_shards_us", "us"},

	{"serve.handler_self_us.kb", "us"},
	{"serve.handler_self_us.ingest", "us"},
	{"serve.handler_self_us.query", "us"},
	{"serve.query_cache_hit_ratio", "ratio"},
	{"serve.shard_cache_hit_ratio", "ratio"},
	{"serve.run_cache_hit_ratio", "ratio"},
	{"serve.pattern_cache_hit_ratio", "ratio"},
	{"serve.pattern_maintained_ratio", "ratio"},
	{"serve.query_evictions", "count"},
	{"serve.shard_evictions", "count"},
	{"serve.singleflight_joins", "count"},
	{"serve.response_bytes.kb", "B"},
	{"serve.response_bytes.query", "B"},
	{"serve.roll_pattern_cache_us", "us"},

	{"session.ingest_self_us", "us"},
	{"session.materialize_us", "us"},
	{"session.fingerprint_us", "us"},
	{"session.delta_records_since_us", "us"},
	{"session.watcher_drops", "count"},
	{"session.compact_backstops", "count"},

	{"store.tree_append_us", "us"},
	{"store.tree_push_us", "us"},
	{"store.compact_us", "us"},
	{"store.merge_segments_us", "us"},
	{"store.merge_segments_per_ingest", "count"},
	{"store.diff_trees_us", "us"},
	{"store.lookup_us", "us"},
	{"store.scan_eavt_us_per_krow", "us"},
	{"store.scan_pos_us_per_krow", "us"},
	{"store.encode_segment_us", "us"},
	{"store.decode_segment_us", "us"},
	{"store.delta_apply_us", "us"},
	{"store.run_count", "count"},
	{"store.segment_bytes_per_fact", "B"},

	{"persist.publish_us", "us"},
	{"persist.flush_us", "us"},
	{"persist.blob_bytes_written", "B"},
	{"persist.manifest_records", "count"},
	{"persist.write_amplification", "ratio"},
	{"persist.open_us", "us"},
	{"persist.restore_us", "us"},
	{"persist.restore_fingerprint_us", "us"},

	{"query.parse_us", "us"},
	{"query.plan_us", "us"},
	{"query.exec_us.point", "us"},
	{"query.exec_us.join", "us"},
	{"query.exec_us.wide", "us"},
	{"query.rows_per_query.point", "count"},
	{"query.rows_per_query.join", "count"},
	{"query.rows_per_query.wide", "count"},
	{"query.pos_scan_ratio", "ratio"},
	{"query.eval_delta_us", "us"},
	{"query.verify_us", "us"},

	{"sched.busy_ratio", "ratio"},
	{"sched.jobs_run", "count"},
	{"sched.stall_ms", "ms"},
	{"maint.compactions_adopted", "count"},
	{"maint.adopted_ratio", "ratio"},

	{"analytics.apply_us", "us"},
	{"analytics.compute_us", "us"},
	{"analytics.deltas_applied", "count"},

	{"replica.apply_us", "us"},
	{"replica.verify_us", "us"},
	{"replica.wire_bytes_per_version", "B"},
	{"replica.reconnects", "count"},
	{"replica.resets", "count"},
	{"replica.quarantines", "count"},

	{"gen.setup_s", "s"},
	{"gen.steal_ratio", "ratio"},
	{"gen.lateness_max_ms", "ms"},
	{"gen.samples.kb", "count"},
	{"gen.samples.ingest", "count"},
	{"gen.samples.query", "count"},
	{"trace.overhead_ratio", "ratio"},
}
