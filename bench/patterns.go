package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
	"qkbfly/internal/replica"
)

// The pattern mix: share of draws and universe size per class. The universe
// (about 2.7k patterns) is far larger than the 256-entry pattern cache.
var patternMix = []struct {
	class string
	share float64
	size  int
}{{"point", 0.7, 2100}, {"join", 0.2, 600}, {"wide", 0.1, 300}}

func queryPath(src, class string) string {
	p := "/query?pattern=" + url.QueryEscape(src)
	if class == "wide" {
		p += "&limit=" + strconv.Itoa(wideLimit)
	}
	return p
}

// snapshotKB fetches the leader's current KB the way a resyncing follower
// does: one reset record from /deltas?snapshot=1, applied to an empty store
// and checked against the record's fingerprint stamp.
func snapshotKB(c *child) (*store.KB, error) {
	b, err := c.ctlGet("/deltas?since=0&snapshot=1")
	if err != nil {
		return nil, err
	}
	var rec replica.Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if !rec.Reset || rec.Delta == nil {
		return nil, fmt.Errorf("/deltas?snapshot=1 did not answer with a reset record")
	}
	kb := rec.Delta.Apply(store.New())
	if replica.FingerprintSHA(kb) != rec.FingerprintSHA {
		return nil, fmt.Errorf("snapshot at v%d does not match its fingerprint stamp", rec.Version)
	}
	return kb, nil
}

// instantiatePatterns derives the pattern universe from the preloaded KB:
// every pattern has at least one answer at the start of the window.
func instantiatePatterns(kb *store.KB, draws func(purpose string) *rand.Rand) map[string][]string {
	facts := kb.Facts()
	bySubject := map[string][]*store.Fact{}
	byRelObj := map[string]int{} // how many subjects share (relation, entity object)
	for i := range facts {
		f := &facts[i]
		if !f.Subject.IsEntity() {
			continue
		}
		bySubject[f.Subject.EntityID] = append(bySubject[f.Subject.EntityID], f)
		for _, o := range f.Objects {
			if o.IsEntity() {
				byRelObj[f.Relation+"\x00"+o.EntityID]++
			}
		}
	}
	clause := func(s, p, o query.Term) query.Clause { return query.Clause{Subject: s, Predicate: p, Object: o} }
	text := func(cs ...query.Clause) string { return (&query.Pattern{Clauses: cs}).String() }
	seen := map[string]bool{}
	out := map[string][]string{}
	add := func(class, src string) {
		if !seen[src] {
			seen[src] = true
			out[class] = append(out[class], src)
		}
	}
	relFacts := map[string]int{}
	for i := range facts {
		relFacts[facts[i].Relation]++
	}
	for i := range facts {
		f := &facts[i]
		if relFacts[f.Relation] >= wideLimit {
			add("wide", text(clause(query.Var("s"), query.Literal(f.Relation), query.Var("t"))))
		}
		if !f.Subject.IsEntity() {
			continue
		}
		add("point", text(clause(query.Entity(f.Subject.EntityID), query.Literal(f.Relation), query.Var("o"))))
		// A join starts from a (relation, object) pair few subjects share, so
		// the reference scan that checks it stays cheap.
		for _, o := range f.Objects {
			if !o.IsEntity() || byRelObj[f.Relation+"\x00"+o.EntityID] > 4 {
				continue
			}
			cs := []query.Clause{clause(query.Var("s"), query.Literal(f.Relation), query.Entity(o.EntityID))}
			for _, g := range bySubject[f.Subject.EntityID] {
				if g.Relation != f.Relation && len(cs) < 2+i%2 {
					cs = append(cs, clause(query.Var("s"), query.Literal(g.Relation), query.Var("x"+strconv.Itoa(len(cs)))))
				}
			}
			if len(cs) > 1 {
				add("join", text(cs...))
			}
		}
	}
	for _, m := range patternMix {
		ps := out[m.class]
		sort.Strings(ps)
		draws("query_mixed.popularity."+m.class).Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		out[m.class] = ps[:min(len(ps), m.size)]
	}
	return out
}

// verifyPattern re-asks one pattern and compares the row keys with
// query.ScanKB over the final KB. A limited pattern may return any
// `limit` of the rows, so it is checked for size and containment.
func verifyPattern(c *child, final *store.KB, src, class string) string {
	b, err := c.ctlGet(queryPath(src, class))
	if err != nil {
		return err.Error()
	}
	var resp struct {
		Rows []struct {
			Bindings map[string]struct {
				Entity  string `json:"entity"`
				Literal string `json:"literal"`
			} `json:"bindings"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return err.Error()
	}
	pat, err := query.Parse(src)
	if err != nil {
		return err.Error()
	}
	want := map[string]bool{}
	for _, row := range query.ScanKB(final, pat) {
		want[row.Key()] = true
	}
	expect := len(want)
	if class == "wide" {
		expect = min(expect, wideLimit)
	}
	if len(resp.Rows) != expect {
		return fmt.Sprintf("%s: served %d rows, scan finds %d", src, len(resp.Rows), expect)
	}
	for _, row := range resp.Rows {
		names := make([]string, 0, len(row.Bindings))
		for n := range row.Bindings {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			if v := row.Bindings[n]; v.Entity != "" {
				parts[i] = n + "=e:" + v.Entity
			} else {
				parts[i] = n + "=l:" + v.Literal
			}
		}
		if key := strings.Join(parts, "\x01"); !want[key] {
			return fmt.Sprintf("%s: served a row the scan does not find: %q", src, key)
		}
	}
	return ""
}
