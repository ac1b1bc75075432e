package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runKBCold is the paper's scenario: every request is a query nobody asked
// before. Two closed-loop clients walk a seeded permutation of all distinct
// repository entity names, cyclically. The universe (about 1.8k names at
// scale 8) is far larger than the 128-entry query cache, and the documents
// the queries retrieve (about 4k) exceed the 1024-entry shard cache, so an
// LRU never hits on the query cache and a shard is reused only where two
// queries truly retrieve the same document. Search, the four pipeline
// stages and the engine merge do nearly all the work; the session, the
// store tree, persistence and replication do none.
func runKBCold(r *run) error {
	names := r.wd.entityNames()
	r.draws("kb_cold.order").Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	clients := r.loadClients()
	return runKB(r, clients, func(c, i int) string { return names[(i*clients+c)%len(names)] })
}

// kbSample is one response kept for the correctness check.
type kbSample struct {
	query string
	body  []byte
}

// kbResponse is the part of the /kb answer the benchmark reads.
type kbResponse struct {
	Docs      []json.RawMessage `json:"docs"`
	FactCount int               `json:"fact_count"`
	Facts     []struct {
		Subject  string   `json:"subject"`
		Relation string   `json:"relation"`
		Objects  []string `json:"objects"`
	} `json:"facts"`
}

// runKB drives GET /kb?q=&size=8&limit=100 with the query pick(client, i)
// chooses, then rebuilds one response in fifty in this process — a direct
// System.BuildKBContext over System.Retrieve of the same query — and
// compares the facts (see checkKB).
func runKB(r *run, clients int, pick func(c, i int) string) error {
	for i := 0; i < r.setupTimes(3); i++ {
		if err := r.setUp(nil); err != nil {
			return err
		}
	}
	r.phase("set up")
	before, err := r.c.stats()
	if err != nil {
		return err
	}
	w := r.window()
	go r.traceSlices(w)
	var (
		lat     latencies
		docs    atomic.Int64
		mu      sync.Mutex
		samples []kbSample
	)
	attempted, failed := closedLoop(w, clients, &lat, func(c, i int, measured bool) (time.Duration, bool) {
		q := pick(c, i)
		body, d, err := r.request("GET", "/kb?size=8&limit=100&q="+url.QueryEscape(q), nil)
		if err != nil || !measured {
			return d, err == nil
		}
		var resp kbResponse
		if json.Unmarshal(body, &resp) != nil {
			return d, false
		}
		docs.Add(int64(len(resp.Docs)))
		if i%50 == 0 {
			mu.Lock()
			samples = append(samples, kbSample{q, body})
			mu.Unlock()
		}
		return d, true
	})
	r.attempted, r.failed = attempted, failed
	r.phase("window closed")
	rss, err := r.c.peakRSSMiB()
	if err != nil {
		return err
	}
	after, err := r.c.stats()
	if err != nil {
		return err
	}
	if err := r.finishEndToEnd(&lat, w, rss); err != nil {
		return err
	}
	if err := r.setPercentile("latency_p99_ms", &lat, 0.99); err != nil {
		return err
	}
	r.set("kb_docs_per_s", "docs/s", float64(docs.Load())/w.seconds(), int(docs.Load()))
	r.set("gen.samples.kb", "count", float64(attempted), 0)
	r.layersFromStats(before.delta(after))

	differ, compared, example := 0, 0, ""
	for _, s := range samples {
		d, n, msg, err := r.checkKB(s)
		if err != nil {
			r.mismatch("/kb?q=%q: %v", s.query, err)
			continue
		}
		differ, compared = differ+d, compared+n
		if example == "" && msg != "" {
			example = fmt.Sprintf("/kb?q=%q: %s", s.query, msg)
		}
	}
	r.tolerateTies("the sampled /kb answers", differ, compared, example)
	r.phase("answers checked")
	return r.finishTrace(probeRequest{})
}

// checkKB compares a served answer with a direct build of the same query
// and returns how many facts differ, out of how many compared, with one
// example. Facts are compared with tiedIdentity removed (see
// tieInsensitive): every fact the answer lists should be in the direct
// build, and an answer that lists all its facts (fact_count within
// limit=100) should list all of the direct build's.
func (r *run) checkKB(s kbSample) (differ, compared int, example string, err error) {
	var resp kbResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return 0, 0, "", err
	}
	kb, _, err := r.wd.sys.BuildKBContext(context.Background(), r.wd.sys.Retrieve(s.query, "wikipedia", 8))
	if err != nil {
		return 0, 0, "", err
	}
	key := func(subject, relation string, objects []string) string {
		return tiedIdentity.ReplaceAllString(subject+"\x00"+relation+"\x00"+strings.Join(objects, "\x00"), "")
	}
	want := map[string]bool{}
	for _, f := range kb.Facts() {
		objects := make([]string, len(f.Objects))
		for i, o := range f.Objects {
			objects[i] = o.String()
		}
		want[key(f.Subject.String(), f.Relation, objects)] = true
	}
	served := map[string]bool{}
	for _, f := range resp.Facts {
		k := key(f.Subject, f.Relation, f.Objects)
		if !want[k] && !served[k] {
			differ++
			example = fmt.Sprintf("served <%s, %s, %v>, which a direct build does not contain", f.Subject, f.Relation, f.Objects)
		}
		served[k] = true
	}
	if resp.FactCount == len(resp.Facts) {
		for k := range want {
			if !served[k] {
				differ++
				example = fmt.Sprintf("a direct build has %q, the answer does not", strings.ReplaceAll(k, "\x00", ", "))
			}
		}
	}
	return differ, len(served), example, nil
}
