package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestStatsDelta(t *testing.T) {
	scrape := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		scrape++
		body := map[string]any{
			"role":     "standalone",
			"counters": map[string]int64{"query_hits": int64(10 * scrape), "query_misses": 5},
			"persist":  map[string]int64{"blob_bytes": int64(1000 * scrape)},
		}
		if scrape > 1 {
			// Counters appear when first written.
			body["counters"].(map[string]int64)["engine_docs"] = 7
		}
		_ = json.NewEncoder(w).Encode(body)
	}))
	defer srv.Close()
	c := &child{base: srv.URL, ctl: srv.Client(), http: srv.Client()}

	before, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	d := before.delta(after)
	if d.Counters["query_hits"] != 10 || d.Counters["query_misses"] != 0 || d.Counters["engine_docs"] != 7 {
		t.Errorf("counter deltas: %v", d.Counters)
	}
	if d.Persist["blob_bytes"] != 1000 {
		t.Errorf("persist deltas: %v", d.Persist)
	}
	if d.elapsed <= 0 {
		t.Errorf("elapsed %v between two scrapes", d.elapsed)
	}

	r := &run{metrics: map[string]metric{}}
	r.layersFromStats(d)
	if m := r.metrics["serve.query_cache_hit_ratio"]; m.Value != 1 || m.Calls != 10 {
		t.Errorf("query cache hit ratio %+v, want 10 hits of 10", m)
	}
	if m := r.metrics["engine.docs_built"]; m.Value != 7 {
		t.Errorf("docs built %+v", m)
	}

	if _, err := c.ctlGet("/nope"); err == nil {
		t.Error("a 404 was not reported as an error")
	}
}
