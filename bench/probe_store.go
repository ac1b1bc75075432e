package main

import (
	"math/rand"

	"qkbfly/internal/analytics"
	"qkbfly/internal/kb/store"
)

// store probes the merge tree and the segment codec on the final
// snapshot's tree. Every tree operation is persistent (it returns a derived
// tree), so each call starts from the same base and the session is not
// touched.
func (p *prober) store() {
	snap := p.d.session.Snapshot()
	// The plain merge, not the server's caching one: the probe times the
	// store, and a run-cache hit on the second call would hide it.
	base := snap.Tree().WithMergeFunc(store.MergeSegments)
	seq := uint64(1) << 40 // above any arrival sequence the session has issued
	seg := func(i int) *store.Segment { return p.segs[i%len(p.segs)] }

	p.time("store.tree_append_us", probeCalls, func(i int) { base.Append(seg(i), seq) })
	p.time("store.tree_push_us", probeCalls, func(i int) { base.Push(seg(i), seq) })
	p.time("store.diff_trees_us", probeCalls, func(i int) {
		store.DiffTrees(base, base.Append(seg(i), seq), []*store.Segment{seg(i)})
	})
	// Sixteen loose appends is what four 4-document ingests leave behind,
	// the maintainer's trigger.
	loose := base
	for i := 0; i < 16; i++ {
		loose = loose.Append(seg(i), seq+uint64(i))
	}
	p.time("store.compact_us", probeScans, func(int) { loose.Compact() })

	blobs := make([][]byte, len(p.segs))
	p.time("store.encode_segment_us", len(p.segs), func(i int) { blobs[i] = store.EncodeSegment(p.segs[i]) })
	p.time("store.decode_segment_us", len(p.segs), func(i int) { _, _ = store.DecodeSegment(blobs[i]) })

	p.out["store.run_count"] = metric{Value: float64(base.RunCount()), Unit: "count"}
	if base.Len() == 0 {
		return // no session traffic in this workload: nothing to look up or scan
	}

	var keys []string
	var leafBytes, leafFacts int
	for _, s := range base.AllSegments() {
		if s.Docs() == 1 {
			keys = append(keys, s.Keys()...)
			leafBytes += len(store.EncodeSegment(s))
			leafFacts += s.Len()
		}
	}
	p.out["store.segment_bytes_per_fact"] = metric{Value: float64(leafBytes) / float64(max(leafFacts, 1)), Unit: "B", Calls: leafFacts}
	rng := rand.New(rand.NewSource(1))
	p.time("store.lookup_us", 5*probeCalls, func(int) { base.Lookup(keys[rng.Intn(len(keys))]) })

	scan := func(name string, open func() *store.TreeCursor) {
		rows := 0
		p.time(name, probeScans, func(int) {
			rows = 0
			for c := open(); ; rows++ {
				if _, _, ok := c.Next(); !ok {
					break
				}
			}
		})
		m := p.out[name]
		m.Value = m.Value * 1000 / float64(max(rows, 1))
		p.out[name] = m
	}
	scan("store.scan_eavt_us_per_krow", func() *store.TreeCursor { return base.ScanPrefix("") })
	scan("store.scan_pos_us_per_krow", func() *store.TreeCursor { return base.ScanPOSPrefix("") })

	p.time("session.materialize_us", probeScans, func(int) { base.Materialize() })
	kb := snap.KB()
	p.time("session.fingerprint_us", probeScans, func(int) { kb.Fingerprint() })
	p.time("analytics.compute_us", probeScans, func(int) { analytics.Compute(kb, snap.Version()) })

	// The deltas the session still retains, each applied to the final KB:
	// what a follower pays per version, before it verifies.
	since := snap.Version() - min(snap.Version(), probeScans)
	if deltas, _, ok := p.d.session.DeltaSince(since); ok && len(deltas) > 0 {
		p.time("store.delta_apply_us", len(deltas), func(i int) { deltas[i].Apply(kb) })
	}
	p.time("session.delta_records_since_us", probeScans, func(int) { p.d.session.DeltaRecordsSince(since) })
}
