package densify

import (
	"math"
	"sort"

	"qkbfly/internal/graph"
	"qkbfly/internal/nlp"
)

// This file keeps the from-scratch form of Algorithm 1 as the reference
// the incremental solver is checked against: every round it lists every
// removable edge and computes its contribution anew from the candidate
// sets, calling the scorer for every weight. Its sets are maps, and every
// loop over them runs in ascending key order, so each floating-point sum
// is added in one fixed order — the order the solver must reproduce to
// give bit-identical results.

// refState is the reference solver's state over one graph.
type refState struct {
	g      *graph.Graph
	scorer *Scorer

	cand      []map[int]int // NP -> entity node -> means edge ID
	pron      []map[int]int // pronoun -> antecedent node -> sameAs edge ID
	npSame    map[int]bool  // alive NP-NP sameAs edge IDs
	relEdges  []int
	relAt     [][]int
	npNodes   []int
	pronNodes []int
	uf        graph.GroupFinder
}

// refDensify runs the reference solver and returns its result and the
// IDs of the edges the greedy loop removed, in removal order.
func refDensify(g *graph.Graph, scorer *Scorer) (*Result, []int) {
	n := len(g.Nodes)
	st := &refState{
		g: g, scorer: scorer,
		cand: make([]map[int]int, n), pron: make([]map[int]int, n),
		npSame: map[int]bool{}, relAt: make([][]int, n),
	}
	for _, gn := range g.Nodes {
		switch gn.Kind {
		case graph.NounPhraseNode:
			st.npNodes = append(st.npNodes, gn.ID)
		case graph.PronounNode:
			st.pronNodes = append(st.pronNodes, gn.ID)
		}
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case graph.MeansEdge:
			if st.cand[e.From] == nil {
				st.cand[e.From] = map[int]int{}
			}
			st.cand[e.From][e.To] = e.ID
		case graph.SameAsEdge:
			from, to := g.Nodes[e.From], g.Nodes[e.To]
			if from.Kind == graph.PronounNode || to.Kind == graph.PronounNode {
				p, pn := e.From, e.To
				if to.Kind == graph.PronounNode {
					p, pn = e.To, e.From
				}
				if st.pron[p] == nil {
					st.pron[p] = map[int]int{}
				}
				st.pron[p][pn] = e.ID
			} else {
				st.npSame[e.ID] = true
			}
		case graph.RelationEdge:
			st.relEdges = append(st.relEdges, e.ID)
			st.relAt[e.From] = append(st.relAt[e.From], e.ID)
			st.relAt[e.To] = append(st.relAt[e.To], e.ID)
		}
	}
	st.initIntersect()
	st.initGenderFilter()
	res := &Result{}
	res.Reset()
	if scorer.Params.PipelineMode {
		st.solvePipeline(res)
		return res, nil
	}
	var order []int
	for {
		cands := st.removableEdges()
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].edgeID < cands[j].edgeID })
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].contribution < cands[best].contribution {
				best = i
			}
		}
		st.apply(cands[best])
		order = append(order, cands[best].edgeID)
	}
	st.extract(res)
	res.Removed = len(order)
	return res, order
}

func keys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func (st *refState) groups() [][]int {
	st.uf.Reset(len(st.g.Nodes))
	for _, id := range st.npNodes {
		st.uf.Add(id)
	}
	for _, eid := range keys(st.npSame) {
		e := st.g.Edges[eid]
		st.uf.Union(e.From, e.To)
	}
	return st.uf.Groups(st.npNodes)
}

func (st *refState) initIntersect() {
	for _, grp := range st.groups() {
		inter := st.groupIntersection(grp)
		if inter == nil {
			continue
		}
		for _, np := range grp {
			for _, ent := range keys(st.cand[np]) {
				if !inter[ent] {
					st.g.Edges[st.cand[np][ent]].Removed = true
					delete(st.cand[np], ent)
				}
			}
		}
	}
}

func (st *refState) groupIntersection(grp []int) map[int]bool {
	inter := map[int]bool{}
	first := true
	for _, np := range grp {
		c := st.cand[np]
		if len(c) == 0 {
			continue
		}
		if first {
			first = false
			for ent := range c {
				inter[ent] = true
			}
			continue
		}
		for ent := range inter {
			if _, ok := c[ent]; !ok {
				delete(inter, ent)
			}
		}
	}
	if first || len(inter) == 0 {
		return nil
	}
	return inter
}

func (st *refState) initGenderFilter() {
	for _, p := range st.pronNodes {
		pg := nlp.PronounGender(st.pronText(p))
		if pg == nlp.GenderUnknown {
			continue
		}
		for _, np := range keys(st.pron[p]) {
			cands := st.cand[np]
			if len(cands) == 0 {
				continue
			}
			ok := false
			for _, ent := range keys(cands) {
				eg := st.scorer.EntityGender(st.g.Nodes[ent].EntityID)
				if eg == nlp.GenderUnknown || eg == pg {
					ok = true
					break
				}
			}
			if !ok {
				st.g.Edges[st.pron[p][np]].Removed = true
				delete(st.pron[p], np)
			}
		}
	}
}

func (st *refState) pronText(p int) string {
	n := st.g.Nodes[p]
	return st.scorer.Doc.Sentences[n.SentIndex].Tokens[n.Head].Text
}

// entSet returns ent(node, S) ascending: an NP's alive candidates, or the
// union of a pronoun's alive antecedents' candidates.
func (st *refState) entSet(node int) []int {
	switch st.g.Nodes[node].Kind {
	case graph.NounPhraseNode:
		return keys(st.cand[node])
	case graph.PronounNode:
		set := map[int]bool{}
		for np := range st.pron[node] {
			for ent := range st.cand[np] {
				set[ent] = true
			}
		}
		return keys(set)
	}
	return nil
}

func (st *refState) relWeight(eid int) float64 {
	e := st.g.Edges[eid]
	sa, sb := st.entSet(e.From), st.entSet(e.To)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	w := 0.0
	for _, a := range sa {
		for _, b := range sb {
			w += st.scorer.PairWeight(st.g.Nodes[a].EntityID, st.g.Nodes[b].EntityID, e.Label)
		}
	}
	return w
}

func (st *refState) objective() float64 {
	w := 0.0
	for _, np := range st.npNodes {
		for _, ent := range keys(st.cand[np]) {
			w += st.scorer.MeansWeight(st.g.Nodes[np], st.g.Nodes[ent].EntityID)
		}
	}
	for _, eid := range st.relEdges {
		w += st.relWeight(eid)
	}
	return w
}

type refRemovable struct {
	edgeID       int
	kind         graph.EdgeKind
	isPronEdge   bool
	np, ent      int
	pron         int
	contribution float64
}

func (st *refState) removableEdges() []refRemovable {
	var out []refRemovable
	for _, np := range st.npNodes {
		if len(st.cand[np]) <= 1 {
			continue
		}
		for _, ent := range keys(st.cand[np]) {
			out = append(out, refRemovable{
				edgeID: st.cand[np][ent], kind: graph.MeansEdge, np: np, ent: ent,
				contribution: st.meansContribution(np, ent),
			})
		}
	}
	for _, p := range st.pronNodes {
		if len(st.pron[p]) <= 1 {
			continue
		}
		for _, np := range keys(st.pron[p]) {
			out = append(out, refRemovable{
				edgeID: st.pron[p][np], kind: graph.SameAsEdge, isPronEdge: true,
				pron: p, np: np,
				contribution: st.pronContribution(p, np),
			})
		}
	}
	for _, grp := range st.groups() {
		if !st.groupConflict(grp) {
			continue
		}
		for _, eid := range keys(st.npSame) {
			e := st.g.Edges[eid]
			if refInGroup(grp, e.From) && refInGroup(grp, e.To) {
				out = append(out, refRemovable{
					edgeID: eid, kind: graph.SameAsEdge, np: e.From,
					contribution: st.sameAsContribution(e.From, e.To),
				})
			}
		}
	}
	return out
}

func (st *refState) groupConflict(grp []int) bool {
	for i := 0; i < len(grp); i++ {
		for j := i + 1; j < len(grp); j++ {
			if refTextConflict(st.g.Nodes[grp[i]].Text, st.g.Nodes[grp[j]].Text) {
				return true
			}
		}
	}
	nonEmpty := 0
	for _, np := range grp {
		if len(st.cand[np]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return false
	}
	return st.groupIntersection(grp) == nil
}

func refTextConflict(a, b string) bool {
	ta, tb := refSplitLower(a), refSplitLower(b)
	if len(ta) < 2 || len(tb) < 2 {
		return false
	}
	return !refTokenSubset(ta, tb) && !refTokenSubset(tb, ta)
}

func refTokenSubset(small, big []string) bool {
	set := map[string]bool{}
	for _, w := range big {
		set[w] = true
	}
	for _, w := range small {
		if !set[w] {
			return false
		}
	}
	return true
}

func refInGroup(grp []int, node int) bool {
	for _, g := range grp {
		if g == node {
			return true
		}
	}
	return false
}

func (st *refState) meansContribution(np, ent int) float64 {
	c := st.scorer.MeansWeight(st.g.Nodes[np], st.g.Nodes[ent].EntityID)
	c += st.relTermsFor(np, ent)
	for _, p := range st.pronNodes {
		if _, linked := st.pron[p][np]; !linked {
			continue
		}
		if st.entitySuppliedByOther(p, np, ent) {
			continue
		}
		c += st.relTermsFor(p, ent)
	}
	return c
}

func (st *refState) relTermsFor(node, ent int) float64 {
	entityID := st.g.Nodes[ent].EntityID
	c := 0.0
	for _, eid := range st.relAt[node] {
		e := st.g.Edges[eid]
		other := e.From
		if other == node {
			other = e.To
		}
		for _, b := range st.entSet(other) {
			c += st.scorer.PairWeight(entityID, st.g.Nodes[b].EntityID, e.Label)
		}
	}
	return c
}

func (st *refState) entitySuppliedByOther(p, np, ent int) bool {
	for other := range st.pron[p] {
		if other == np {
			continue
		}
		if _, ok := st.cand[other][ent]; ok {
			return true
		}
	}
	return false
}

func (st *refState) pronContribution(p, np int) float64 {
	c := 0.0
	for _, ent := range keys(st.cand[np]) {
		if !st.entitySuppliedByOther(p, np, ent) {
			c += st.relTermsFor(p, ent)
		}
	}
	pn, nn := st.g.Nodes[p], st.g.Nodes[np]
	dist := float64(pn.SentIndex-nn.SentIndex) + 0.01*float64(abs(pn.Head-nn.Head))
	c += 1e-3 / (1 + dist)
	for _, eid := range st.relAt[np] {
		if st.g.Edges[eid].From == np {
			c += 2e-3
			break
		}
	}
	return c
}

func (st *refState) sameAsContribution(a, b int) float64 {
	best := 0.0
	for ea := range st.cand[a] {
		for eb := range st.cand[b] {
			coh := st.scorer.coherence(st.g.Nodes[ea].EntityID, st.g.Nodes[eb].EntityID)
			if coh > best {
				best = coh
			}
		}
	}
	return best + 1e-3*float64(refSharedTokens(st.g.Nodes[a].Text, st.g.Nodes[b].Text))
}

func (st *refState) apply(r refRemovable) {
	st.g.Edges[r.edgeID].Removed = true
	switch {
	case r.kind == graph.MeansEdge:
		delete(st.cand[r.np], r.ent)
	case r.isPronEdge:
		delete(st.pron[r.pron], r.np)
	default:
		delete(st.npSame, r.edgeID)
	}
}

func (st *refState) solvePipeline(res *Result) {
	for _, np := range st.npNodes {
		bestEnt, bestW, total := -1, 0.0, 0.0
		ents := keys(st.cand[np])
		for _, ent := range ents {
			w := st.scorer.MeansWeight(st.g.Nodes[np], st.g.Nodes[ent].EntityID)
			total += w
			if bestEnt < 0 || w > bestW {
				bestEnt, bestW = ent, w
			}
		}
		if bestEnt >= 0 {
			res.Assignment[np] = st.g.Nodes[bestEnt].EntityID
			if total > 0 {
				res.Confidence[np] = bestW / total
			} else {
				res.Confidence[np] = 1.0 / float64(len(ents))
			}
		}
	}
	for _, p := range st.pronNodes {
		best, bestDist := -1, math.MaxInt
		for _, np := range keys(st.pron[p]) {
			pn, nn := st.g.Nodes[p], st.g.Nodes[np]
			d := (pn.SentIndex-nn.SentIndex)*1000 + abs(pn.Head-nn.Head)
			if d < bestDist {
				best, bestDist = np, d
			}
		}
		if best >= 0 {
			res.Antecedent[p] = best
		}
	}
	res.Objective = st.objective()
}

func (st *refState) extract(res *Result) {
	for _, grp := range st.groups() {
		inter := st.groupIntersection(grp)
		entNode := -1
		for _, ent := range keys(inter) {
			entNode = ent
		}
		if entNode < 0 {
			continue
		}
		entityID := st.g.Nodes[entNode].EntityID
		for _, np := range grp {
			res.Assignment[np] = entityID
			res.Confidence[np] = st.confidence(np, entNode)
		}
	}
	for _, p := range st.pronNodes {
		for _, np := range keys(st.pron[p]) {
			res.Antecedent[p] = np
		}
	}
	res.Objective = st.objective()
}

func (st *refState) confidence(np, chosen int) float64 {
	var cands []int
	for _, eid := range st.g.EdgesAt(np) {
		e := st.g.Edges[eid]
		if e.Kind == graph.MeansEdge && e.From == np {
			cands = append(cands, e.To)
		}
	}
	if len(cands) <= 1 {
		return 1
	}
	num := st.substitutionContribution(np, chosen)
	den := 0.0
	for _, ent := range cands {
		den += st.substitutionContribution(np, ent)
	}
	if den <= 0 {
		return 1 / float64(len(cands))
	}
	return num / den
}

func (st *refState) substitutionContribution(np, ent int) float64 {
	entityID := st.g.Nodes[ent].EntityID
	c := st.scorer.MeansWeight(st.g.Nodes[np], entityID)
	for _, eid := range st.relAt[np] {
		e := st.g.Edges[eid]
		other := e.From
		if other == np {
			other = e.To
		}
		for _, b := range st.entSet(other) {
			if b == ent && other == np {
				continue
			}
			c += st.scorer.PairWeight(entityID, st.g.Nodes[b].EntityID, e.Label)
		}
	}
	return c
}

func refSharedTokens(a, b string) int {
	am := map[string]bool{}
	for _, w := range refSplitLower(a) {
		am[w] = true
	}
	n := 0
	for _, w := range refSplitLower(b) {
		if am[w] {
			n++
		}
	}
	return n
}

func refSplitLower(s string) []string {
	var out []string
	w := make([]rune, 0, 16)
	flush := func() {
		if len(w) > 0 {
			out = append(out, string(w))
			w = w[:0]
		}
	}
	for _, r := range s {
		if r == ' ' || r == '\t' {
			flush()
			continue
		}
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		w = append(w, r)
	}
	flush()
	return out
}
