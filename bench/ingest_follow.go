package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"qkbfly"
	"qkbfly/internal/nlp"
	"qkbfly/internal/replica"
)

const (
	ingestBatch   = 4    // documents per POST /ingest
	followWindow  = 1024 // -session-window of the durable leader
	reopenCycles  = 7    // SIGKILL -> respawn cycles of an untraced run
	reopenTraced  = 3    // of a traced run, which only needs the three parts
	quiesceBudget = 30 * time.Second
)

// runIngestFollow is the write path end to end. A durable leader (data
// dir, maintenance on, rolling window of 1024 documents, empty at start)
// takes 4-document batches from one closed-loop writer; the stream is every
// wiki and news document once, then re-phrased articles under fresh ids, so
// the shard cache can never stand in for a build. One replica.Follower in
// this process tails /deltas from version 0 over the second connection.
// After the window the leader is killed and reopened several times.
//
// Build, seal, tree append, DiffTrees, publish, persist writeback, delta
// fan-out, follower apply and its O(N) fingerprint verify are all on this
// path, with background compaction and its O(N) adoption check competing
// for the second core. The /kb workloads touch none of it.
func runIngestFollow(r *run) error {
	// Every set-up starts from an empty data directory, so setup_s is a
	// cold start; restoring from a used one is reopen_ms, below.
	var dir string
	var args []string
	for i := 0; i < r.setupTimes(3); i++ {
		var err error
		if dir, err = r.tmpDir(); err != nil {
			return err
		}
		args = []string{"-data-dir", dir, "-session-window", fmt.Sprint(followWindow)}
		if err := r.setUp(nil, args...); err != nil {
			return err
		}
	}
	r.phase("set up")

	// The stream is produced ahead of the writer so that generating and
	// encoding a batch is not part of anyone's latency.
	type batch struct {
		docs []ingestDoc
		body []byte
	}
	batches := make(chan batch, 64) // a second of writer throughput, so the producer is never waited for
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	go func() {
		base, variants := r.wd.baseDocs(r.draws("ingest_follow.docs")), r.wd.variants(r.draws("ingest_follow.variants"))
		for {
			b := batch{docs: make([]ingestDoc, ingestBatch)}
			for i := range b.docs {
				if len(base) > 0 {
					b.docs[i], base = base[0], base[1:]
				} else {
					b.docs[i] = variants.next()
				}
			}
			b.body, _ = json.Marshal(map[string]any{"docs": b.docs})
			select {
			case batches <- b:
			case <-streamCtx.Done():
				return
			}
		}
	}()

	var (
		mu       sync.Mutex
		sentAt   = map[uint64]time.Time{} // version -> when its /ingest was sent
		seenAt   = map[uint64]time.Time{} // version -> when the follower verified it
		wire     countingDial
		sent     = map[string]ingestDoc{}
		lastAck  uint64
		docsAck  int
		textSize int
		process  []time.Duration
	)
	wire.client = r.c.http
	follower := replica.New(replica.Options{
		Leader: r.c.base,
		Dial:   wire.dial,
		Logf:   func(string, ...any) {},
		OnVerified: func(v uint64, _ string) {
			now := time.Now()
			// From the stream read that delivered the record to the verified
			// publish: decode, Delta.Apply and the fingerprint check.
			r.tr.record("replica.process", time.Unix(0, wire.lastRead.Load()), now)
			mu.Lock()
			seenAt[v] = now
			process = append(process, now.Sub(time.Unix(0, wire.lastRead.Load())))
			mu.Unlock()
		},
	})
	followCtx, stopFollower := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		_ = follower.Run(followCtx)
	}()
	defer func() {
		stopFollower()
		<-followerDone
	}()

	before, err := r.c.stats()
	if err != nil {
		return err
	}
	w := r.window()
	go r.traceSlices(w)
	var lat latencies
	r.attempted, r.failed = closedLoop(w, 1, &lat, func(_, _ int, measured bool) (time.Duration, bool) {
		b := <-batches
		t0 := time.Now()
		body, d, err := r.request("POST", "/ingest", b.body)
		var ack struct {
			Version  uint64 `json:"version"`
			Ingested int    `json:"ingested"`
		}
		if err != nil || json.Unmarshal(body, &ack) != nil {
			return d, false
		}
		mu.Lock()
		defer mu.Unlock()
		for _, doc := range b.docs {
			sent[doc.ID] = doc
		}
		lastAck = ack.Version
		for _, doc := range b.docs {
			textSize += len(doc.Text)
		}
		if measured {
			sentAt[ack.Version] = t0
			docsAck += ack.Ingested
		}
		return d, ack.Ingested == ingestBatch
	})
	r.phase("window closed")
	stopStream()
	rss, err := r.c.peakRSSMiB()
	if err != nil {
		return err
	}

	// Quiesce: the follower has verified the last acknowledged version and
	// the persist writeback counters have stopped moving.
	deadline := time.Now().Add(quiesceBudget)
	for {
		if _, v := follower.KB(); v >= lastAck {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not reach version %d within %s", lastAck, quiesceBudget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after, err := r.c.stats()
	for prev := int64(-1); err == nil && after.Persist["manifest_records"] != prev; {
		prev = after.Persist["manifest_records"]
		time.Sleep(50 * time.Millisecond)
		after, err = r.c.stats()
	}
	if err != nil {
		return err
	}

	r.phase("quiesced")
	// No latency_p99_ms here: a window holds about 370 acknowledgements.
	if err := r.finishEndToEnd(&lat, w, rss); err != nil {
		return err
	}
	d := before.delta(after)
	r.layersFromStats(d)
	r.metrics["ingest_p50_ms"], r.metrics["ingest_p95_ms"] = r.metrics["latency_p50_ms"], r.metrics["latency_p95_ms"]
	r.set("gen.samples.ingest", "count", float64(r.attempted), 0)
	r.set("ingest_docs_per_s", "docs/s", float64(docsAck)/w.seconds(), docsAck)
	r.set("persist.write_amplification", "ratio",
		float64(d.Persist["blob_bytes"]+manifestSize(dir))/float64(max(textSize, 1)), docsAck)

	var lag latencies
	for v, t0 := range sentAt {
		if t1, ok := seenAt[v]; ok {
			lag.add(0, t1.Sub(t0))
		} else {
			r.mismatch("version %d was acknowledged but never verified on the follower", v)
		}
	}
	if err := r.setPercentile("follow_lag_p50_ms", &lag, 0.50); err != nil {
		return err
	}
	if err := r.setPercentile("follow_lag_p95_ms", &lag, 0.95); err != nil {
		return err
	}
	fc := follower.Counters()
	r.set("replica.wire_bytes_per_version", "B", float64(wire.bytes.Load())/float64(max(fc.Get(replica.CounterVerified), 1)), int(fc.Get(replica.CounterVerified)))
	r.set("replica.reconnects", "count", float64(fc.Get(replica.CounterReconnects)), 0)
	r.set("replica.resets", "count", float64(fc.Get(replica.CounterResets)), 0)
	r.set("replica.quarantines", "count", float64(fc.Get(replica.CounterQuarantines)), 0)

	// Correctness: leader and follower agree on the fingerprint, nothing was
	// quarantined, and a one-shot flat build over the surviving window has
	// the leader's facts (up to tied candidates, see tieTolerance).
	var sess struct {
		Version     uint64   `json:"version"`
		Docs        []string `json:"docs"`
		Facts       int      `json:"facts"`
		Fingerprint string   `json:"fingerprint"`
	}
	if err := r.c.getJSON("/session?fingerprint=1", &sess); err != nil {
		return err
	}
	leaderSHA := qkbfly.FingerprintSHAHex(sess.Fingerprint)
	fkb, fver := follower.KB()
	followerSHA := replica.FingerprintSHA(fkb)
	window := make([]*nlp.Document, 0, len(sess.Docs))
	for _, id := range sess.Docs {
		doc := sent[id]
		window = append(window, &nlp.Document{ID: doc.ID, Title: doc.Title, Source: doc.Source, Text: doc.Text})
	}
	flat, _, err := r.wd.sys.BuildKBContext(context.Background(), window)
	if err != nil {
		return err
	}
	switch {
	case fver != sess.Version || followerSHA != leaderSHA:
		r.mismatch("follower at v%d (%.12s) differs from leader at v%d (%.12s)", fver, followerSHA, sess.Version, leaderSHA)
	case fc.Get(replica.CounterQuarantines) != 0:
		r.mismatch("follower quarantined %d versions", fc.Get(replica.CounterQuarantines))
	}
	leaderFacts, flatFacts := tieInsensitive(sess.Fingerprint), tieInsensitive(flat.Fingerprint())
	differ, example := 0, ""
	for f := range flatFacts {
		if !leaderFacts[f] {
			differ, example = differ+1, "only the one-shot build has "+f
		}
	}
	for f := range leaderFacts {
		if !flatFacts[f] {
			differ, example = differ+1, "only the leader has "+f
		}
	}
	r.tolerateTies(fmt.Sprintf("the leader's KB over the %d surviving documents", len(window)), differ, len(leaderFacts), example)
	r.set("disk_bytes_per_fact", "B", float64(dirSize(dir))/float64(max(sess.Facts, 1)), sess.Facts)
	r.medianUS("replica.verify_us", timeCalls(probeScans, func() { replica.FingerprintSHA(fkb) }))
	// What is left of the follower's per-version time once the verify is
	// taken out: decoding the record and Delta.Apply.
	r.medianUS("replica.apply_us", process)
	if m := r.metrics["replica.apply_us"]; m.Calls > 0 {
		m.Value = max(m.Value-r.metrics["replica.verify_us"].Value, 0)
		r.metrics["replica.apply_us"] = m
	}
	stopFollower()
	<-followerDone
	r.phase("fingerprints checked")
	// The layer probe needs the session's retained history, which a reopened
	// child does not have, so it runs now. It publishes further versions, so
	// after it the reopen loop can check versions but no longer content.
	if err := r.finishTrace(probeRequest{}); err != nil {
		return err
	}

	// Process-crash durability: SIGKILL, respawn on the same directory, and
	// the session must come back at or past the last acknowledged version
	// with the content the follower verified. The operating system's cache
	// stays intact across a process kill, so this says nothing about power
	// loss.
	cycles := reopenCycles
	if r.cfg.traced {
		cycles = reopenTraced
	}
	var open, restore, fp, total []float64
	for i := 0; i < cycles; i++ {
		if err := r.respawn(args...); err != nil {
			return fmt.Errorf("reopen cycle %d: %w", i, err)
		}
		b := r.c.boot
		if b.Version < lastAck {
			r.mismatch("reopen cycle %d restored version %d, below the last acknowledged %d", i, b.Version, lastAck)
		} else if b.Version == sess.Version && b.Fingerprint != leaderSHA {
			r.mismatch("reopen cycle %d restored different content at version %d", i, b.Version)
		}
		open, restore, fp = append(open, b.OpenUS), append(restore, b.RestoreUS), append(fp, b.FingerprintUS)
		total = append(total, (b.OpenUS+b.RestoreUS+b.FingerprintUS)/1e3)
	}
	r.phase("reopened")
	r.set("reopen_ms", "ms", medianOf(total), cycles)
	r.set("persist.open_us", "us", medianOf(open), cycles)
	r.set("persist.restore_us", "us", medianOf(restore), cycles)
	r.set("persist.restore_fingerprint_us", "us", medianOf(fp), cycles)
	return nil
}
