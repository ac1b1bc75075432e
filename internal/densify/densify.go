package densify

import (
	"cmp"
	"math"
	"slices"
	"unicode/utf8"

	"qkbfly/internal/graph"
	"qkbfly/internal/nlp"
)

// Result is the output of the graph algorithm: the densified subgraph S*
// expressed as an assignment of noun phrases to entities, pronoun
// antecedents, and per-mention confidence scores (§4).
type Result struct {
	// Assignment maps NP node IDs to their disambiguated entity ID; nodes
	// absent from the map are out-of-KB (new entities).
	Assignment map[int]string
	// Antecedent maps pronoun node IDs to the NP node ID they resolve to;
	// -1 (or absence) means unresolved.
	Antecedent map[int]int
	// Confidence holds the normalized confidence score of each assigned
	// NP node (§4, "Confidence Scores").
	Confidence map[int]float64
	// Removed counts edges removed by the greedy loop (for tests).
	Removed int
	// Objective is W(S*), the final subgraph weight.
	Objective float64
}

// Reset clears a Result for reuse, keeping map capacity; callers that
// pool results (the engine scratch, the ILP translation) use it to avoid
// reallocating the three maps per document.
func (r *Result) Reset() {
	if r.Assignment == nil {
		r.Assignment = map[int]string{}
		r.Antecedent = map[int]int{}
		r.Confidence = map[int]float64{}
	}
	clear(r.Assignment)
	clear(r.Antecedent)
	clear(r.Confidence)
	r.Removed = 0
	r.Objective = 0
}

// Roles of the edges the greedy loop may remove, recorded per edge ID.
const (
	roleNone  uint8 = iota
	roleMeans       // a means edge; ref is its entity slot
	roleLink        // a pronoun sameAs edge; ref is its link
	roleSame        // an NP-NP sameAs edge; ref is its index in npSame
)

// link is a pronoun sameAs edge: pronoun p may resolve to antecedent np.
// linkSlots[off+k] is the pronoun slot that the antecedent's k-th
// candidate slot feeds, or -1 when that candidate was already cut.
type link struct {
	p, np, edge int
	off         int32
}

// tok is one lowercase token of a mention: a byte range of state.tokBuf.
type tok struct{ lo, hi int32 }

// nodeEdge pairs a node with the edge that links it: a candidate entity or
// an antecedent.
type nodeEdge struct{ node, edge int }

// state is the solver state of one document. Every table is dense —
// indexed by node ID, edge ID or entity slot — and every buffer keeps its
// capacity across documents when the state is reused through a Scratch.
type state struct {
	g      *graph.Graph
	scorer *Scorer

	npNodes   []int
	pronNodes []int
	relEdges  []int     // relation edges, ascending; never removed
	relAt     [][]int   // node -> incident relation edges, ascending
	npSame    []int     // NP-NP sameAs edges, ascending
	sameBonus []float64 // per npSame entry: 1e-3 x the shared tokens

	// Entity slots. Node v owns slots lo[v]..hi[v]-1, ascending by entity
	// node ID: an NP every candidate its means edges offer, a pronoun the
	// union of its antecedents' candidates that survive the initial
	// filters, any other node none. NP slots come first, so slotEdge and
	// slotMW cover them only.
	lo, hi   []int32
	slotEnt  []int32   // entity node ID
	slotEdge []int32   // NP slot: its means edge
	slotMW   []float64 // NP slot: the means weight, computed at reset
	// live[s] is 1 while an NP slot's means edge is alive; for a pronoun
	// slot it counts the alive antecedents that still offer the entity.
	// ent(v, S) is v's slots with live > 0.
	live []int32
	// alive counts an NP's alive means edges and a pronoun's alive links.
	alive []int32

	links          []link
	linkLo, linkHi []int32   // per pronoun: its links, ascending antecedent
	linkSlots      []int32   // see link
	pronOf         [][]int32 // per node: the links naming it, ascending pronoun

	// Per edge ID.
	role    []uint8
	ref     []int32   // see the roles; a relation edge's memo offset
	dead    []bool    // removed by the solver
	rem     []bool    // removable this round
	contrib []float64 // the cached contribution of a removable edge

	// memo holds the pair weights of each relation edge, NaN until first
	// used: from ref[e], the From x To block (From's entity as the first
	// PairWeight argument), then the To x From block.
	memo []float64

	uf        graph.GroupFinder
	groups    [][]int // sameAs groups over alive NP-NP edges
	groupOf   []int32
	groupText []bool // per group: two members' names cannot co-refer

	tokBuf       []byte
	toks         []tok
	tokLo, tokHi []int32 // per node; tokHi is -1 until tokenized

	seen      []uint32 // per node: the round it was last marked dirty
	round     uint32
	dirtyNP   []int
	dirtyPron []int

	order   []int // the edges the loop may remove, ascending
	removed []int // the loop's removals, in order
	entBuf  []int32
	nodeBuf []nodeEdge
}

// Scratch owns a reusable solver state (and result), so a worker that
// densifies many documents stops allocating once its buffers have grown
// to a typical document's size. The *Result returned by DensifyScratch is
// valid until the next call with the same Scratch.
type Scratch struct {
	st  state
	res Result
}

// NewScratch returns an empty densification scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Densify runs the greedy constrained densest-subgraph algorithm
// (Algorithm 1) and returns the assignment, antecedents and confidences.
func Densify(g *graph.Graph, scorer *Scorer) *Result {
	return DensifyScratch(g, scorer, NewScratch())
}

// DensifyScratch is Densify with caller-owned scratch state; the returned
// Result is recycled on the next call with the same Scratch.
func DensifyScratch(g *graph.Graph, scorer *Scorer, sc *Scratch) *Result {
	st := sc.st.reset(g, scorer)
	res := &sc.res
	res.Reset()
	if scorer.Params.PipelineMode {
		st.solvePipeline(res)
		return res
	}
	res.Removed = st.greedyLoop()
	st.extract(res)
	return res
}

// fill resizes s to n entries, all v, reusing its capacity.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// resizeLists re-sizes a node-indexed table of lists to n empty entries,
// keeping previously allocated inner lists.
func resizeLists[T any](t [][]T, n int) [][]T {
	if cap(t) < n {
		grown := make([][]T, n)
		copy(grown, t[:cap(t)])
		t = grown
	}
	t = t[:n]
	for i := range t {
		t[i] = t[i][:0]
	}
	return t
}

// reset rebuilds the state for a new document: the entity slots with
// their means weights, the pronoun links, the sameAs groups, then the
// initial filters of Algorithm 1 (candidate intersection, gender), the
// pronoun slots and the pair-weight memo.
func (st *state) reset(g *graph.Graph, scorer *Scorer) *state {
	st.g, st.scorer = g, scorer
	n, m := len(g.Nodes), len(g.Edges)
	st.npNodes, st.pronNodes = st.npNodes[:0], st.pronNodes[:0]
	st.relEdges, st.npSame, st.sameBonus = st.relEdges[:0], st.npSame[:0], st.sameBonus[:0]
	st.relAt = resizeLists(st.relAt, n)
	st.pronOf = resizeLists(st.pronOf, n)
	st.lo, st.hi = fill(st.lo, n, 0), fill(st.hi, n, 0)
	st.alive = fill(st.alive, n, 0)
	st.linkLo, st.linkHi = fill(st.linkLo, n, 0), fill(st.linkHi, n, 0)
	st.groupOf = fill(st.groupOf, n, 0)
	st.tokLo, st.tokHi = fill(st.tokLo, n, 0), fill(st.tokHi, n, -1)
	st.seen, st.round = fill(st.seen, n, 0), 0
	st.role = fill(st.role, m, roleNone)
	st.ref = fill(st.ref, m, 0)
	st.dead = fill(st.dead, m, false)
	st.rem = fill(st.rem, m, false)
	st.contrib = fill(st.contrib, m, 0)
	st.slotEnt, st.slotEdge, st.slotMW, st.live = st.slotEnt[:0], st.slotEdge[:0], st.slotMW[:0], st.live[:0]
	st.links, st.linkSlots = st.links[:0], st.linkSlots[:0]
	st.tokBuf, st.toks = st.tokBuf[:0], st.toks[:0]
	st.order, st.removed = st.order[:0], st.removed[:0]

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
		case graph.SameAsEdge:
			if g.Nodes[e.From].Kind != graph.PronounNode && g.Nodes[e.To].Kind != graph.PronounNode {
				st.role[e.ID], st.ref[e.ID] = roleSame, int32(len(st.npSame))
				st.npSame = append(st.npSame, e.ID)
				a, b := st.tokens(e.From), st.tokens(e.To)
				st.sameBonus = append(st.sameBonus, 1e-3*float64(sharedTokens(st.tokBuf, a, b)))
			}
		case graph.RelationEdge:
			st.relEdges = append(st.relEdges, e.ID)
			st.relAt[e.From] = append(st.relAt[e.From], e.ID)
			st.relAt[e.To] = append(st.relAt[e.To], e.ID)
		}
	}
	for _, np := range st.npNodes {
		st.addCandidates(np)
	}
	for _, p := range st.pronNodes {
		st.addLinks(p)
	}
	st.regroup()
	st.initIntersect()
	st.initGenderFilter()
	for _, p := range st.pronNodes {
		st.addPronounSlots(p)
	}
	size := int32(0)
	for _, eid := range st.relEdges {
		e := g.Edges[eid]
		st.ref[eid] = size
		size += 2 * (st.hi[e.From] - st.lo[e.From]) * (st.hi[e.To] - st.lo[e.To])
	}
	st.memo = fill(st.memo, int(size), math.NaN())
	return st
}

// addCandidates gives NP np one slot per candidate entity, with its means
// weight. A candidate offered twice keeps the later edge, as a map keyed
// by entity would.
func (st *state) addCandidates(np int) {
	cands := st.nodeBuf[:0]
	for _, eid := range st.g.EdgesAt(np) {
		if e := st.g.Edges[eid]; e.Kind == graph.MeansEdge && e.From == np {
			cands = append(cands, nodeEdge{node: e.To, edge: eid})
		}
	}
	st.nodeBuf = cands
	slices.SortStableFunc(cands, func(a, b nodeEdge) int { return cmp.Compare(a.node, b.node) })
	st.lo[np] = int32(len(st.slotEnt))
	for _, c := range cands {
		s := int32(len(st.slotEnt))
		if s > st.lo[np] && st.slotEnt[s-1] == int32(c.node) {
			s--
			st.role[st.slotEdge[s]] = roleNone
			st.slotEdge[s] = int32(c.edge)
		} else {
			st.slotEnt = append(st.slotEnt, int32(c.node))
			st.slotEdge = append(st.slotEdge, int32(c.edge))
			st.slotMW = append(st.slotMW, st.scorer.MeansWeight(st.g.Nodes[np], st.g.Nodes[c.node].EntityID))
			st.live = append(st.live, 1)
		}
		st.role[c.edge], st.ref[c.edge] = roleMeans, s
	}
	st.hi[np] = int32(len(st.slotEnt))
	st.alive[np] = st.hi[np] - st.lo[np]
}

// addLinks records pronoun p's sameAs edges, ascending by antecedent. An
// edge between two pronouns belongs to its To end; an antecedent linked
// twice keeps the later edge.
func (st *state) addLinks(p int) {
	g := st.g
	cands := st.nodeBuf[:0]
	for _, eid := range g.EdgesAt(p) {
		e := g.Edges[eid]
		if e.Kind != graph.SameAsEdge {
			continue
		}
		switch toPron := g.Nodes[e.To].Kind == graph.PronounNode; {
		case e.To == p && toPron:
			cands = append(cands, nodeEdge{node: e.From, edge: eid})
		case e.From == p && !toPron:
			cands = append(cands, nodeEdge{node: e.To, edge: eid})
		}
	}
	st.nodeBuf = cands
	slices.SortStableFunc(cands, func(a, b nodeEdge) int { return cmp.Compare(a.node, b.node) })
	st.linkLo[p] = int32(len(st.links))
	for _, c := range cands {
		li := int32(len(st.links))
		if li > st.linkLo[p] && st.links[li-1].np == c.node {
			li--
			st.role[st.links[li].edge] = roleNone
			st.links[li].edge = c.edge
		} else {
			st.links = append(st.links, link{p: p, np: c.node, edge: c.edge})
			st.pronOf[c.node] = append(st.pronOf[c.node], li)
		}
		st.role[c.edge], st.ref[c.edge] = roleLink, li
	}
	st.linkHi[p] = int32(len(st.links))
	st.alive[p] = st.linkHi[p] - st.linkLo[p]
}

// cands returns node v's candidate slots: an NP's own, none for any other
// node (a pronoun's slots are inherited, not candidates).
func (st *state) cands(v int) (int32, int32) {
	if st.g.Nodes[v].Kind != graph.NounPhraseNode {
		return 0, 0
	}
	return st.lo[v], st.hi[v]
}

// addPronounSlots gives pronoun p one slot per entity its alive
// antecedents still offer, and maps each antecedent's candidate slots to
// them.
func (st *state) addPronounSlots(p int) {
	ents := st.entBuf[:0]
	for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
		if l := &st.links[li]; !st.dead[l.edge] {
			lo, hi := st.cands(l.np)
			for s := lo; s < hi; s++ {
				if st.live[s] > 0 {
					ents = append(ents, st.slotEnt[s])
				}
			}
		}
	}
	slices.Sort(ents)
	ents = slices.Compact(ents)
	st.entBuf = ents
	st.lo[p] = int32(len(st.slotEnt))
	st.slotEnt = append(st.slotEnt, ents...)
	st.hi[p] = int32(len(st.slotEnt))
	for range ents {
		st.live = append(st.live, 0)
	}
	own := st.slotEnt[st.lo[p]:st.hi[p]]
	for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
		l := &st.links[li]
		if st.dead[l.edge] {
			continue
		}
		l.off = int32(len(st.linkSlots))
		lo, hi := st.cands(l.np)
		for s := lo; s < hi; s++ {
			ps := int32(-1)
			if st.live[s] > 0 {
				i, _ := slices.BinarySearch(own, st.slotEnt[s])
				ps = st.lo[p] + int32(i)
				st.live[ps]++
			}
			st.linkSlots = append(st.linkSlots, ps)
		}
	}
}

// tokens returns node v's lowercase tokens, splitting its text on the
// first call.
func (st *state) tokens(v int) []tok {
	if st.tokHi[v] < 0 {
		st.tokLo[v] = int32(len(st.toks))
		st.tokBuf, st.toks = appendTokens(st.tokBuf, st.toks, st.g.Nodes[v].Text)
		st.tokHi[v] = int32(len(st.toks))
	}
	return st.toks[st.tokLo[v]:st.tokHi[v]]
}

// regroup recomputes the sameAs groups over the alive NP-NP edges and
// each group's textual conflict.
func (st *state) regroup() {
	st.uf.Reset(len(st.g.Nodes))
	for _, np := range st.npNodes {
		st.uf.Add(np)
	}
	for _, eid := range st.npSame {
		if !st.dead[eid] {
			st.uf.Union(st.g.Edges[eid].From, st.g.Edges[eid].To)
		}
	}
	st.groups = st.uf.Groups(st.npNodes)
	st.groupText = fill(st.groupText, len(st.groups), false)
	for gi, grp := range st.groups {
		for i, a := range grp {
			st.groupOf[a] = int32(gi)
			for _, b := range grp[i+1:] {
				if !st.groupText[gi] {
					ta, tb := st.tokens(a), st.tokens(b)
					st.groupText[gi] = textConflict(st.tokBuf, ta, tb)
				}
			}
		}
	}
}

// intersection returns the entities alive at every member of grp that
// has any, ascending, and the number of such members. The slice is a
// scratch buffer, valid until the next call.
func (st *state) intersection(grp []int) ([]int32, int) {
	inter := st.entBuf[:0]
	nonEmpty := 0
	for _, np := range grp {
		if st.alive[np] == 0 {
			continue
		}
		if nonEmpty == 0 {
			for s := st.lo[np]; s < st.hi[np]; s++ {
				if st.live[s] > 0 {
					inter = append(inter, st.slotEnt[s])
				}
			}
		} else {
			kept := inter[:0]
			for _, ent := range inter {
				if st.offers(np, ent) {
					kept = append(kept, ent)
				}
			}
			inter = kept
		}
		nonEmpty++
	}
	st.entBuf = inter
	return inter, nonEmpty
}

// offers reports whether NP np still has entity ent as a candidate.
func (st *state) offers(np int, ent int32) bool {
	for s := st.lo[np]; s < st.hi[np]; s++ {
		if st.slotEnt[s] == ent {
			return st.live[s] > 0
		}
	}
	return false
}

// initIntersect applies the candidate-set intersection of Algorithm 1:
// for all noun-phrase nodes mutually connected via sameAs edges, the
// entity candidate sets are intersected (skipping empty sets, which
// denote out-of-KB names). A group whose sets are disjoint is left to
// the greedy loop, which resolves the conflict by pruning sameAs edges.
func (st *state) initIntersect() {
	for _, grp := range st.groups {
		if len(grp) < 2 {
			continue
		}
		inter, _ := st.intersection(grp)
		if len(inter) == 0 {
			continue
		}
		for _, np := range grp {
			for s := st.lo[np]; s < st.hi[np]; s++ {
				if _, in := slices.BinarySearch(inter, st.slotEnt[s]); st.live[s] > 0 && !in {
					st.cut(int(st.slotEdge[s]))
					st.live[s] = 0
					st.alive[np]--
				}
			}
		}
	}
}

// initGenderFilter implements constraint (4): a pronoun may not link to a
// noun phrase whose every entity candidate has a known gender conflicting
// with the pronoun's.
func (st *state) initGenderFilter() {
	for _, p := range st.pronNodes {
		n := st.g.Nodes[p]
		pg := nlp.PronounGender(st.scorer.Doc.Sentences[n.SentIndex].Tokens[n.Head].Text)
		if pg == nlp.GenderUnknown {
			continue
		}
		for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
			l := &st.links[li]
			lo, hi := st.cands(l.np)
			any, ok := false, false
			for s := lo; s < hi && !ok; s++ {
				if st.live[s] > 0 {
					any = true
					eg := st.scorer.EntityGender(st.g.Nodes[st.slotEnt[s]].EntityID)
					ok = eg == nlp.GenderUnknown || eg == pg
				}
			}
			if any && !ok {
				st.cut(l.edge)
				st.alive[p]--
			}
		}
	}
}

// cut removes edge eid from the graph and the solver.
func (st *state) cut(eid int) {
	st.g.Edges[eid].Removed = true
	st.dead[eid] = true
	st.rem[eid] = false
}

// pair returns the memoized PairWeight term of relation edge eid between
// slot x on one side and slot y on the other: x's entity is the first
// argument, and fwd says x is on the From side.
func (st *state) pair(eid int, fwd bool, x, y int32) float64 {
	e := st.g.Edges[eid]
	nf, nt := st.hi[e.From]-st.lo[e.From], st.hi[e.To]-st.lo[e.To]
	var at int32
	if fwd {
		at = st.ref[eid] + (x-st.lo[e.From])*nt + y - st.lo[e.To]
	} else {
		at = st.ref[eid] + nf*nt + (x-st.lo[e.To])*nf + y - st.lo[e.From]
	}
	w := st.memo[at]
	if math.IsNaN(w) {
		w = st.scorer.PairWeight(st.g.Nodes[st.slotEnt[x]].EntityID, st.g.Nodes[st.slotEnt[y]].EntityID, e.Label)
		st.memo[at] = w
	}
	return w
}

// relTerms sums the pair-weight terms of all relation edges at node that
// involve the entity of node's slot x on node's side: edges ascending,
// the other side's entities ascending.
func (st *state) relTerms(node int, x int32) float64 {
	c := 0.0
	for _, eid := range st.relAt[node] {
		e := st.g.Edges[eid]
		other, fwd := e.From, false
		if other == node {
			other, fwd = e.To, true
		}
		for y := st.lo[other]; y < st.hi[other]; y++ {
			if st.live[y] > 0 {
				c += st.pair(eid, fwd, x, y)
			}
		}
	}
	return c
}

// relWeight computes w(ni, nt, S) for one relation edge under the current
// candidate sets.
func (st *state) relWeight(eid int) float64 {
	e := st.g.Edges[eid]
	w := 0.0
	for x := st.lo[e.From]; x < st.hi[e.From]; x++ {
		if st.live[x] == 0 {
			continue
		}
		for y := st.lo[e.To]; y < st.hi[e.To]; y++ {
			if st.live[y] > 0 {
				w += st.pair(eid, true, x, y)
			}
		}
	}
	return w
}

// objective computes W(S): all alive means weights plus all relation
// weights.
func (st *state) objective() float64 {
	w := 0.0
	for _, np := range st.npNodes {
		for s := st.lo[np]; s < st.hi[np]; s++ {
			if st.live[s] > 0 {
				w += st.slotMW[s]
			}
		}
	}
	for _, eid := range st.relEdges {
		w += st.relWeight(eid)
	}
	return w
}

// greedyLoop removes the means/sameAs edge with the smallest contribution
// to the objective until all constraints hold (Algorithm 1); ties go to
// the lowest edge ID. Every removable edge's contribution is cached. A
// removal changes ent(v, S) for a set X of nodes — an NP's removed
// candidate changes the NP and every pronoun linked to it, a removed
// pronoun link changes the pronoun — and only the contributions that
// read those sets are computed again, from scratch and in the same order
// as the first time: those of each node in X and of its relation
// neighbours, and, for each of those that is a pronoun, those of its
// antecedents' means edges (see touch and mark), plus the means edges of
// the antecedent a removed link named. A removed candidate also
// re-checks its sameAs group for conflict; a removed NP-NP edge
// recomputes the groups. No contribution is ever updated by difference,
// so each one is a pure function of the current state.
func (st *state) greedyLoop() int {
	for _, np := range st.npNodes {
		st.rescoreNP(np)
	}
	for _, p := range st.pronNodes {
		st.rescorePron(p)
	}
	st.rescoreGroups()
	for _, e := range st.g.Edges {
		if st.role[e.ID] != roleNone && !st.dead[e.ID] {
			st.order = append(st.order, e.ID)
		}
	}
	for {
		best := -1
		for _, eid := range st.order {
			if st.rem[eid] && (best < 0 || st.contrib[eid] < st.contrib[best]) {
				best = eid
			}
		}
		if best < 0 {
			return len(st.removed)
		}
		st.apply(best)
	}
}

// apply removes edge eid, updates the candidate sets and re-scores what
// the removal changed.
func (st *state) apply(eid int) {
	st.cut(eid)
	st.removed = append(st.removed, eid)
	st.round++
	switch st.role[eid] {
	case roleMeans:
		np, s := st.g.Edges[eid].From, st.ref[eid]
		st.live[s] = 0
		st.alive[np]--
		k := s - st.lo[np]
		st.touch(np)
		for _, li := range st.pronOf[np] {
			if l := &st.links[li]; !st.dead[l.edge] {
				st.live[st.linkSlots[l.off+k]]--
				st.touch(l.p)
			}
		}
		if gi := st.groupOf[np]; len(st.groups[gi]) > 1 {
			st.rescoreGroup(int(gi))
		}
	case roleLink:
		l := &st.links[st.ref[eid]]
		st.alive[l.p]--
		lo, hi := st.cands(l.np)
		for s := lo; s < hi; s++ {
			if st.live[s] > 0 {
				st.live[st.linkSlots[l.off+s-lo]]--
			}
		}
		st.touch(l.p)
		st.mark(l.np)
	case roleSame:
		st.regroup()
		st.rescoreGroups()
	}
	for _, np := range st.dirtyNP {
		st.rescoreNP(np)
	}
	for _, p := range st.dirtyPron {
		st.rescorePron(p)
	}
	st.dirtyNP, st.dirtyPron = st.dirtyNP[:0], st.dirtyPron[:0]
}

// touch marks for re-scoring every contribution that reads ent(v, S):
// v's own and those of its relation neighbours.
func (st *state) touch(v int) {
	st.mark(v)
	for _, eid := range st.relAt[v] {
		e := st.g.Edges[eid]
		if e.From == v {
			st.mark(e.To)
		} else {
			st.mark(e.From)
		}
	}
}

// mark schedules node v's contributions for re-scoring: an NP's means
// edges; a pronoun's links, and the means edges of its alive antecedents,
// which read the pronoun's relation terms and which entities it receives.
func (st *state) mark(v int) {
	if st.seen[v] == st.round {
		return
	}
	st.seen[v] = st.round
	switch st.g.Nodes[v].Kind {
	case graph.NounPhraseNode:
		st.dirtyNP = append(st.dirtyNP, v)
	case graph.PronounNode:
		st.dirtyPron = append(st.dirtyPron, v)
		for li := st.linkLo[v]; li < st.linkHi[v]; li++ {
			if l := &st.links[li]; !st.dead[l.edge] {
				st.mark(l.np)
			}
		}
	}
}

// rescoreNP recomputes the removability and contributions of np's alive
// means edges: removable while np has more than one.
func (st *state) rescoreNP(np int) {
	multi := st.alive[np] > 1
	for s := st.lo[np]; s < st.hi[np]; s++ {
		if st.live[s] > 0 {
			eid := st.slotEdge[s]
			st.rem[eid] = multi
			if multi {
				st.contrib[eid] = st.meansContribution(np, s)
			}
		}
	}
}

// rescorePron recomputes the removability and contributions of pronoun
// p's alive links: removable while p has more than one.
func (st *state) rescorePron(p int) {
	multi := st.alive[p] > 1
	for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
		if l := &st.links[li]; !st.dead[l.edge] {
			st.rem[l.edge] = multi
			if multi {
				st.contrib[l.edge] = st.pronContribution(l)
			}
		}
	}
}

// rescoreGroups re-checks every sameAs group with more than one member.
func (st *state) rescoreGroups() {
	for gi, grp := range st.groups {
		if len(grp) > 1 {
			st.rescoreGroup(gi)
		}
	}
}

// rescoreGroup re-checks group gi against constraint (3) and makes its
// alive NP-NP edges removable, with their contributions, while it fails.
// A group fails when two members are textually incompatible full names
// ("Gwendolyn Ashcombe" and "Adrien Ashcombe" chained through the bare
// surname "Ashcombe" — the transitive string-match noise the
// densification must cut), or when two or more members have candidates
// and no entity is common to all of them.
func (st *state) rescoreGroup(gi int) {
	conflict := st.groupText[gi]
	if !conflict {
		inter, nonEmpty := st.intersection(st.groups[gi])
		conflict = nonEmpty > 1 && len(inter) == 0
	}
	for i, eid := range st.npSame {
		if st.dead[eid] || st.groupOf[st.g.Edges[eid].From] != int32(gi) {
			continue
		}
		st.rem[eid] = conflict
		if conflict {
			st.contrib[eid] = st.sameAsContribution(i)
		}
	}
}

// TextConflict reports whether two mention surfaces cannot name the same
// entity: both are multi-token and neither's token set contains the
// other's. Exported for the ILP translation, which needs the same guard.
func TextConflict(a, b string) bool {
	buf, toks := appendTokens(nil, nil, a)
	na := len(toks)
	buf, toks = appendTokens(buf, toks, b)
	return textConflict(buf, toks[:na], toks[na:])
}

// appendTokens appends the space- or tab-separated tokens of s, with
// ASCII letters lowercased, to buf and their ranges to toks.
func appendTokens(buf []byte, toks []tok, s string) ([]byte, []tok) {
	start := -1
	for _, r := range s {
		if r == ' ' || r == '\t' {
			if start >= 0 {
				toks = append(toks, tok{int32(start), int32(len(buf))})
				start = -1
			}
			continue
		}
		if start < 0 {
			start = len(buf)
		}
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		buf = utf8.AppendRune(buf, r)
	}
	if start >= 0 {
		toks = append(toks, tok{int32(start), int32(len(buf))})
	}
	return buf, toks
}

// textConflict reports whether two token lists cannot name the same
// entity: both have two or more tokens and neither's set contains the
// other's.
func textConflict(buf []byte, a, b []tok) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	return !tokenSubset(buf, a, b) && !tokenSubset(buf, b, a)
}

func tokenSubset(buf []byte, small, big []tok) bool {
	for _, w := range small {
		if !hasToken(buf, big, w) {
			return false
		}
	}
	return true
}

func hasToken(buf []byte, toks []tok, w tok) bool {
	for _, t := range toks {
		if string(buf[t.lo:t.hi]) == string(buf[w.lo:w.hi]) {
			return true
		}
	}
	return false
}

// sharedTokens counts the tokens of b, with repeats, that also occur in a.
func sharedTokens(buf []byte, a, b []tok) int {
	n := 0
	for _, w := range b {
		if hasToken(buf, a, w) {
			n++
		}
	}
	return n
}

// meansContribution is c(x,y,S) = W(S) - W(S') for removing the means
// edge of NP slot s: the means weight itself plus the relation-weight
// terms that involve the entity at this NP, and at each pronoun linked
// to it that no other antecedent offers the entity to.
func (st *state) meansContribution(np int, s int32) float64 {
	c := st.slotMW[s]
	c += st.relTerms(np, s)
	k := s - st.lo[np]
	for _, li := range st.pronOf[np] {
		l := &st.links[li]
		if st.dead[l.edge] {
			continue
		}
		if ps := st.linkSlots[l.off+k]; st.live[ps] == 1 {
			c += st.relTerms(l.p, ps)
		}
	}
	return c
}

// pronContribution is the objective loss from unlinking a pronoun from
// an antecedent: the relation terms for entities only that antecedent
// supplies, plus a small recency preference (closer antecedents
// contribute more).
func (st *state) pronContribution(l *link) float64 {
	c := 0.0
	lo, hi := st.cands(l.np)
	for s := lo; s < hi; s++ {
		if st.live[s] == 0 {
			continue
		}
		if ps := st.linkSlots[l.off+s-lo]; st.live[ps] == 1 {
			c += st.relTerms(l.p, ps)
		}
	}
	pn, nn := st.g.Nodes[l.p], st.g.Nodes[l.np]
	dist := float64(pn.SentIndex-nn.SentIndex) + 0.01*float64(abs(pn.Head-nn.Head))
	c += 1e-3 / (1 + dist)
	// Salience: antecedents that act as clause subjects elsewhere (they
	// have outgoing relation edges) are preferred over object mentions.
	for _, eid := range st.relAt[l.np] {
		if st.g.Edges[eid].From == l.np {
			c += 2e-3
			break
		}
	}
	return c
}

// sameAsContribution scores the i-th NP-NP sameAs edge by the best
// coherence between the two sides' candidates plus a token-overlap bonus:
// the edge that binds least coherent mentions is cut first.
func (st *state) sameAsContribution(i int) float64 {
	e := st.g.Edges[st.npSame[i]]
	best := 0.0
	for x := st.lo[e.From]; x < st.hi[e.From]; x++ {
		if st.live[x] == 0 {
			continue
		}
		for y := st.lo[e.To]; y < st.hi[e.To]; y++ {
			if st.live[y] == 0 {
				continue
			}
			coh := st.scorer.coherence(st.g.Nodes[st.slotEnt[x]].EntityID, st.g.Nodes[st.slotEnt[y]].EntityID)
			if coh > best {
				best = coh
			}
		}
	}
	return best + st.sameBonus[i]
}

// solvePipeline is the QKBfly-pipeline configuration: each mention is
// disambiguated independently by its means weight (no joint inference),
// and pronouns resolve to the nearest compatible antecedent, the lowest
// node ID among equally near ones.
func (st *state) solvePipeline(res *Result) {
	for _, np := range st.npNodes {
		best, bestW, total, n := int32(-1), 0.0, 0.0, 0
		for s := st.lo[np]; s < st.hi[np]; s++ {
			if st.live[s] == 0 {
				continue
			}
			w := st.slotMW[s]
			total += w
			n++
			if best < 0 || w > bestW {
				best, bestW = s, w
			}
		}
		if best >= 0 {
			res.Assignment[np] = st.g.Nodes[st.slotEnt[best]].EntityID
			if total > 0 {
				res.Confidence[np] = bestW / total
			} else {
				res.Confidence[np] = 1.0 / float64(n)
			}
		}
	}
	for _, p := range st.pronNodes {
		best, bestDist := -1, math.MaxInt
		for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
			l := &st.links[li]
			if st.dead[l.edge] {
				continue
			}
			pn, nn := st.g.Nodes[p], st.g.Nodes[l.np]
			if d := (pn.SentIndex-nn.SentIndex)*1000 + abs(pn.Head-nn.Head); d < bestDist {
				best, bestDist = l.np, d
			}
		}
		if best >= 0 {
			res.Antecedent[p] = best
		}
	}
	res.Objective = st.objective()
}

// extract reads the final assignment out of a consistent state and
// computes the §4 confidence scores.
func (st *state) extract(res *Result) {
	// Once the loop ends, every group's members with candidates share
	// exactly one entity.
	for _, grp := range st.groups {
		inter, _ := st.intersection(grp)
		if len(inter) == 0 {
			continue
		}
		ent := inter[0]
		for _, np := range grp {
			res.Assignment[np] = st.g.Nodes[ent].EntityID
			res.Confidence[np] = st.confidence(np, ent)
		}
	}
	for _, p := range st.pronNodes {
		for li := st.linkLo[p]; li < st.linkHi[p]; li++ {
			if l := &st.links[li]; !st.dead[l.edge] {
				res.Antecedent[p] = l.np
			}
		}
	}
	res.Objective = st.objective()
}

// confidence implements the normalized confidence score of §4:
// c(ni,eij,S*) over the sum of contributions when substituting each
// original candidate (every means edge of np in the full graph).
func (st *state) confidence(np int, chosen int32) float64 {
	n := 0
	for _, eid := range st.g.EdgesAt(np) {
		if e := st.g.Edges[eid]; e.Kind == graph.MeansEdge && e.From == np {
			n++
		}
	}
	if n <= 1 {
		return 1
	}
	// An NP with two or more candidates keeps one to the end, so the
	// group's entity is among its slots.
	s := st.lo[np]
	for st.slotEnt[s] != chosen {
		s++
	}
	num := st.substitutionContribution(np, s)
	den := 0.0
	for _, eid := range st.g.EdgesAt(np) {
		if e := st.g.Edges[eid]; e.Kind == graph.MeansEdge && e.From == np {
			den += st.substitutionContribution(np, st.ref[eid])
		}
	}
	if den <= 0 {
		return 1 / float64(n)
	}
	return num / den
}

// substitutionContribution computes c(ni, eit, St) where St substitutes
// the candidate of NP slot s at np, holding all other assignments fixed.
func (st *state) substitutionContribution(np int, s int32) float64 {
	c := st.slotMW[s]
	for _, eid := range st.relAt[np] {
		e := st.g.Edges[eid]
		other, fwd := e.From, false
		if other == np {
			other, fwd = e.To, true
		}
		for y := st.lo[other]; y < st.hi[other]; y++ {
			if st.live[y] == 0 || (other == np && st.slotEnt[y] == st.slotEnt[s]) {
				continue
			}
			c += st.pair(eid, fwd, s, y)
		}
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
