package main

import (
	"time"

	"qkbfly/internal/analytics"
	"qkbfly/internal/nlp"
)

// session probes what one published version costs outside the pipeline by
// ingesting single fresh documents straight into the live session: the
// Session.Ingest span (its build and publish spans are subtracted by the
// parent), the time until that version is durable, the analytics fold of
// its delta, and rolling the pattern cache over it. It runs last because
// it moves the session past the state the workload left.
func (p *prober) session(patterns map[string][]string) {
	d := p.d
	ingest := func() {
		sp, ctx := d.tr.start(p.ctx, "probe.session.ingest", nil)
		d.tr.curIngest.Store(sp)
		_, _, _ = d.session.Ingest(ctx, []*nlp.Document{p.freshDoc()})
		d.tr.curIngest.Store(nil)
		d.tr.end(sp)
	}
	snap := d.session.Snapshot()
	fold := analytics.FromKB(snap.KB(), snap.Version(), 0)
	var flush, apply []time.Duration
	for i := 0; i < probeCalls/2; i++ {
		ingest()
		if d.pstore != nil {
			t := time.Now()
			d.pstore.Flush()
			flush = append(flush, time.Since(t))
		}
		v := d.session.Snapshot().Version()
		if deltas, _, ok := d.session.DeltaSince(v - 1); ok && len(deltas) == 1 {
			t := time.Now()
			_, err := fold.Apply(v, &deltas[0])
			if err == nil {
				apply = append(apply, time.Since(t))
			}
		}
	}
	p.setMedian("persist.flush_us", flush)
	p.setMedian("analytics.apply_us", apply)

	if len(patterns) == 0 {
		return
	}
	// Drive the roll-forward by hand: stop the daemon's own loop, warm the
	// cache with point and join answers on the current version, publish
	// one more version, and time RollPatternCache over its delta.
	d.stopPatternMaint()
	d.stopPatternMaint = func() {}
	pats := parseAll(append(append([]string(nil), patterns["point"]...), patterns["join"]...))
	if len(pats) > 64 {
		pats = pats[:64]
	}
	var roll []time.Duration
	for i := 0; i < probeScans; i++ {
		prev := d.session.Snapshot()
		for _, pat := range pats {
			_, _, _ = d.server.QueryPattern(p.ctx, prev, pat)
		}
		ingest()
		next := d.session.Snapshot()
		deltas, _, ok := d.session.DeltaSince(prev.Version())
		if !ok || len(deltas) != 1 {
			continue
		}
		t := time.Now()
		d.server.RollPatternCache(prev.ContentID(), next, deltas[0])
		roll = append(roll, time.Since(t))
	}
	p.setMedian("serve.roll_pattern_cache_us", roll)
}
