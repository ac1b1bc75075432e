package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

const (
	mixedWindow   = 4096 // -session-window: nothing is evicted during the run
	preloadBatch  = 64
	writeInterval = 250 * time.Millisecond // open-loop writer: 4 versions/s
	// wideLimit is the row limit of a wide query. Only relations with at
	// least this many facts are asked, so every wide answer has exactly
	// this many rows and the class costs the same whichever pattern is hot.
	wideLimit = 200
)

// runQueryMixed is reads beside writes on the same snapshot and caches. The
// leader is preloaded with every wiki and news document (about 10^4 facts;
// part of setup_s). Two closed-loop readers draw patterns Zipf(s = 1)
// within a class chosen 70/20/10: `point` (e:X "rel" ?o), `join` (a
// variable-subject clause bound by predicate and object, so it runs off the
// POS index, joined to a second clause) and `wide` (?s "rel" ?t over a
// relation with at least 200 facts, limit 200). One open-loop writer sends
// a 1-document /ingest every 250 ms, timed from when it was due.
//
// Query parse, plan, scan and row encoding and the delta-maintained pattern
// cache do the work; the pipeline builds only 4 documents a second, but
// each one publishes a version the cache must roll over. `point` is bound
// by the HTTP round trip and `wide` by scan and encode, so the median and
// the tail separate handler overhead from executor cost.
func runQueryMixed(r *run) error {
	base := r.wd.baseDocs(r.draws("query_mixed.preload"))
	preload := func(c *child) error {
		for i := 0; i < len(base); i += preloadBatch {
			body, _ := json.Marshal(map[string]any{"docs": base[i:min(i+preloadBatch, len(base))]})
			if _, err := c.do("POST", "/ingest", body, 0); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < r.setupTimes(2); i++ { // two, not three: a preload takes four seconds
		if err := r.setUp(preload, "-session-window", strconv.Itoa(mixedWindow)); err != nil {
			return err
		}
	}
	r.phase("set up")
	kb, err := snapshotKB(r.c)
	if err != nil {
		return err
	}
	universe := instantiatePatterns(kb, r.draws)
	r.phase("patterns instantiated")
	// Every reader has its own seeded streams: which class next, and which
	// pattern of that class.
	type reader struct {
		class  *rand.Rand
		draws  map[string]*zipf
		issued map[string]string // pattern source -> class, for the check after the window
	}
	// Two readers keep both cores busy. With one, each request waits on two
	// idle-processor wake-ups, and on a virtual machine those vary from run
	// to run by more than anything the daemon does (README, "what the numbers
	// can resolve"). The readers and the writer share the two connections.
	readers := make([]reader, r.loadClients())
	for c := range readers {
		id := strconv.Itoa(c)
		readers[c] = reader{class: r.draws("query_mixed.class" + id), draws: map[string]*zipf{}, issued: map[string]string{}}
		for _, m := range patternMix {
			if len(universe[m.class]) == 0 {
				return fmt.Errorf("no %s patterns could be instantiated from %d facts", m.class, kb.Len())
			}
			readers[c].draws[m.class] = newZipf(r.draws("query_mixed."+m.class+id), 1.0, len(universe[m.class]))
		}
	}

	// The writer's documents, encoded ahead: one per slot plus the warm-up.
	variants := r.wd.variants(r.draws("query_mixed.variants"))
	slots := int(time.Duration(r.cfg.seconds)*time.Second/writeInterval) + 64
	bodies := make([][]byte, slots)
	for i := range bodies {
		bodies[i], _ = json.Marshal(map[string]any{"docs": []ingestDoc{variants.next()}})
	}

	before, err := r.c.stats()
	if err != nil {
		return err
	}
	w := r.window()
	go r.traceSlices(w)
	var (
		qlat, wlat, late latencies
		wAttempted       int
		wFailed          int
		wg               sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingest := func(i int) bool {
			body, _, err := r.request("POST", "/ingest", bodies[i])
			var ack struct {
				Ingested int `json:"ingested"`
			}
			return err == nil && json.Unmarshal(body, &ack) == nil && ack.Ingested == 1
		}
		for i := 0; i < 32 && time.Now().Before(w.start.Add(-writeInterval)); i++ {
			ingest(i) // warm-up, discarded
		}
		wAttempted, wFailed = openLoop(w, writeInterval, &wlat, &late, time.Now, time.Sleep, func(i int) (time.Time, bool) {
			ok := ingest(32 + i)
			return time.Now(), ok
		})
	}()
	attempted, failed := closedLoop(w, len(readers), &qlat, func(c, _ int, measured bool) (time.Duration, bool) {
		rd := &readers[c]
		class, u := patternMix[0].class, rd.class.Float64()
		for _, m := range patternMix {
			if class = m.class; u < m.share {
				break
			}
			u -= m.share
		}
		src := universe[class][rd.draws[class].next()]
		body, d, err := r.request("GET", queryPath(src, class), nil)
		if err != nil {
			return d, false
		}
		if measured {
			rd.issued[src] = class
		}
		var resp struct {
			Count int `json:"count"`
		}
		return d, json.Unmarshal(body, &resp) == nil
	})
	wg.Wait()
	r.attempted, r.failed = attempted+wAttempted, failed+wFailed
	r.phase("window closed")
	rss, err := r.c.peakRSSMiB()
	if err != nil {
		return err
	}
	after, err := r.c.stats()
	if err != nil {
		return err
	}
	if err := r.finishEndToEnd(&qlat, w, rss); err != nil {
		return err
	}
	if err := r.setPercentile("latency_p99_ms", &qlat, 0.99); err != nil {
		return err
	}
	// 60 writer samples support a median and no tail.
	if err := r.setPercentile("ingest_p50_ms", &wlat, 0.50); err != nil {
		return err
	}
	r.layersFromStats(before.delta(after))
	r.set("gen.samples.query", "count", float64(attempted), 0)
	r.set("gen.samples.ingest", "count", float64(wAttempted), 0)
	if ls := late.sorted(); len(ls) > 0 {
		r.set("gen.lateness_max_ms", "ms", ms(ls[len(ls)-1]), len(ls))
	}
	r.set("ingest_docs_per_s", "docs/s", float64(wAttempted-wFailed)/w.seconds(), wAttempted)

	// Correctness: with the writer stopped, every distinct pattern issued
	// is asked once more and must return exactly the rows a scan over the
	// materialized final snapshot finds.
	final, err := snapshotKB(r.c)
	if err != nil {
		return err
	}
	issued := map[string]string{}
	for _, rd := range readers {
		for src, class := range rd.issued {
			issued[src] = class
		}
	}
	srcs := make([]string, 0, len(issued))
	for src := range issued {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	var vmu sync.Mutex
	var vwg sync.WaitGroup
	for part := 0; part < 2; part++ {
		vwg.Add(1)
		go func(part int) {
			defer vwg.Done()
			for i := part; i < len(srcs); i += 2 {
				if msg := verifyPattern(r.c, final, srcs[i], issued[srcs[i]]); msg != "" {
					vmu.Lock()
					r.mismatch("%s", msg)
					vmu.Unlock()
				}
			}
		}(part)
	}
	vwg.Wait()
	r.phase("answers checked")
	r.attempted += len(srcs)
	return r.finishTrace(probeRequest{Patterns: universe})
}
