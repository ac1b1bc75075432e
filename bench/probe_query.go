package main

import (
	"time"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
)

// query probes the pattern engine below the serve layer's cache, on the
// final snapshot's tree, with the patterns the workload issued: parse and
// plan over all of them, execution per class, then the two calls pattern
// maintenance is made of (EvalDelta for rows a version adds, Verify for
// rows it may have removed).
func (p *prober) query(patterns map[string][]string) {
	if len(patterns) == 0 {
		return
	}
	tree := p.d.session.Snapshot().Tree()
	var all []string
	for _, class := range []string{"point", "join", "wide"} {
		srcs := patterns[class]
		if len(srcs) > probeCalls {
			srcs = srcs[:probeCalls]
		}
		all = append(all, srcs...)
		if len(srcs) == 0 {
			continue
		}
		parsed := parseAll(srcs)
		if class == "wide" {
			for _, pat := range parsed {
				pat.Limit = wideLimit
			}
		}
		rows := 0
		p.time("query.exec_us."+class, len(parsed), func(i int) {
			if it, err := query.Run(tree, parsed[i]); err == nil {
				rows += len(it.Collect())
			}
		})
		p.out["query.rows_per_query."+class] = metric{Value: float64(rows) / float64(len(parsed)), Unit: "count", Calls: len(parsed)}
	}
	p.time("query.parse_us", len(all), func(i int) { _, _ = query.Parse(all[i]) })
	parsed := parseAll(all)
	p.time("query.plan_us", len(parsed), func(i int) { query.PlanQuery(tree, parsed[i]) })

	v := p.d.session.Snapshot().Version()
	deltas, _, ok := p.d.session.DeltaSince(v - min(v, 1))
	if ok && len(deltas) > 0 {
		p.time("query.eval_delta_us", len(parsed), func(i int) { query.EvalDelta(tree, parsed[i], deltas[0]) })
	}
	// Verify re-runs a pattern under one answer row's full bindings.
	type bound struct {
		pat  *query.Pattern
		vals map[string]store.Value
	}
	var rows []bound
	for _, pat := range parseAll(patterns["join"]) {
		if it, err := query.Run(tree, pat); err == nil {
			if row, ok := it.Next(); ok {
				rows = append(rows, bound{pat, row.Bindings})
			}
		}
		if len(rows) == probeCalls {
			break
		}
	}
	var ds []time.Duration
	for _, b := range rows {
		t := time.Now()
		query.Verify(tree, b.pat, b.vals)
		ds = append(ds, time.Since(t))
	}
	p.setMedian("query.verify_us", ds)
}

func parseAll(srcs []string) []*query.Pattern {
	out := make([]*query.Pattern, 0, len(srcs))
	for _, s := range srcs {
		if pat, err := query.Parse(s); err == nil {
			out = append(out, pat)
		}
	}
	return out
}
