package query

import (
	"slices"
	"sort"
	"sync/atomic"

	"qkbfly/internal/intern"
	"qkbfly/internal/kb/store"
)

// The executor is a backtracking nested-loop join whose per-clause
// input is a store.TreeCursor prefix scan: each step resolves whatever
// terms the plan has bound so far into the longest usable dedup-key
// prefix (subject, or subject+relation) and the longest usable POS-key
// prefix (relation, or relation+object), binary-searches both ranges in
// every run, opens the narrower one, and streams candidates with
// cross-run winner resolution done by the cursor itself. Nothing is
// materialized: a query touches only the key ranges its bound terms
// select, and rows are produced incrementally, so limit-k queries stop
// after k distinct rows.

// Process-wide access-path counters: posScans counts frames opened on
// the POS index, fullScans frames that had no usable prefix on either
// index and scanned every run end to end. The serving layer surfaces
// them through /stats (index_pos_scans / index_full_scans) so index
// selection is observable in production.
var indexPOSScans, indexFullScans atomic.Int64

// IndexCounters returns the cumulative access-path counters.
func IndexCounters() (posScans, fullScans int64) {
	return indexPOSScans.Load(), indexFullScans.Load()
}

// mode classifies how a step treats one term position, fixed at plan
// time (resolved-ness is static per plan position).
type mode int

const (
	modeConst mode = iota // constant — verify against the fact
	modeBound             // variable bound by an earlier step — verify
	modeBind              // variable first introduced here — bind from the fact
	modeWild              // wildcard — unconstrained
)

// step is the static execution recipe for one planned clause.
type step struct {
	c                           Clause
	subjMode, predMode, objMode mode
	subjVar, predVar, objVar    string
	// predIntra/objIntra mark modeBound variables introduced by an
	// earlier position of this same clause (e.g. ?x r ?x): their value
	// exists only after this fact's earlier positions bind, so the
	// comparison key is computed per admitted fact, not per frame.
	predIntra, objIntra bool
	binds               []string // vars this step introduces; unbound on backtrack
}

// buildSteps compiles (clauses, execution order) into steps, threading
// the bound-variable set exactly as the planner did.
func buildSteps(clauses []Clause, order []int, ambient map[string]bool) []step {
	bound := make(map[string]bool, len(ambient))
	for v := range ambient {
		bound[v] = true
	}
	steps := make([]step, len(order))
	for d, ci := range order {
		c := clauses[ci]
		st := &steps[d]
		st.c = c
		classify := func(t Term) (mode, string) {
			switch t.Kind {
			case TermWild:
				return modeWild, ""
			case TermConst:
				return modeConst, ""
			default:
				if bound[t.Name] {
					return modeBound, t.Name
				}
				bound[t.Name] = true
				st.binds = append(st.binds, t.Name)
				return modeBind, t.Name
			}
		}
		st.subjMode, st.subjVar = classify(c.Subject)
		st.predMode, st.predVar = classify(c.Predicate)
		st.predIntra = st.predMode == modeBound && st.subjMode == modeBind && st.predVar == st.subjVar
		st.objMode, st.objVar = classify(c.Object)
		st.objIntra = st.objMode == modeBound &&
			((st.subjMode == modeBind && st.objVar == st.subjVar) ||
				(st.predMode == modeBind && st.objVar == st.predVar))
	}
	return steps
}

// frame is the runtime state of one step: its prefix cursor plus the
// extension fan-out of the currently admitted fact.
type frame struct {
	cur     *store.TreeCursor
	subjKey string // resolved subject key (modeConst/modeBound)
	relKey  string // resolved relation key (modeConst / non-intra modeBound)
	objKey  string // resolved object key (modeConst / non-intra modeBound)
	dead    bool   // a resolved term can never match (e.g. entity-valued predicate)
	fact    store.Fact
	exts    []store.Value // object extensions of fact; one sentinel unless objMode is modeBind
	extKeys []string      // scratch: dedup keys of exts
	extPos  int
	one     [1]store.Value
}

// Rows streams a query's distinct answer rows in deterministic executor
// order. Obtain one from Run; it is single-goroutine (not safe for
// concurrent use) and reads a fixed immutable tree, so it stays valid
// however long the caller holds it.
type Rows struct {
	tree     *store.Tree
	clauses  []Clause
	tau      float64
	limit    int
	order    []int
	preFacts map[int]store.Fact
	steps    []step
	frames   []*frame
	facts    []store.Fact // supporting fact per depth
	depth    int
	bind     map[string]store.Value
	seen     map[string]bool
	emitted  int
	done     bool
}

// Run plans p against t and returns a streaming row iterator.
func Run(t *store.Tree, p *Pattern) (*Rows, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return runSub(t, p.Clauses, PlanQuery(t, p).Order, p.Tau, p.Limit, nil, nil), nil
}

// runSub starts an executor over a subset of clauses (order holds
// clause indexes) with optional seed bindings and pre-satisfied clause
// facts — the shared core of Run and EvalDelta.
func runSub(t *store.Tree, clauses []Clause, order []int, tau float64, limit int,
	seed map[string]store.Value, preFacts map[int]store.Fact) *Rows {
	r := &Rows{
		tree:     t,
		clauses:  clauses,
		tau:      tau,
		limit:    limit,
		order:    order,
		preFacts: preFacts,
		frames:   make([]*frame, len(order)),
		facts:    make([]store.Fact, len(order)),
		bind:     make(map[string]store.Value, len(seed)+3*len(order)),
		seen:     make(map[string]bool),
	}
	ambient := make(map[string]bool, len(seed))
	for n, v := range seed {
		r.bind[n] = v
		ambient[n] = true
	}
	r.steps = buildSteps(clauses, order, ambient)
	return r
}

// Next yields the next distinct row, or ok=false when the query is
// exhausted (or the limit reached).
func (r *Rows) Next() (Row, bool) {
	for !r.done {
		if r.limit > 0 && r.emitted >= r.limit {
			r.done = true
			break
		}
		if r.depth == len(r.order) {
			// Full assignment: resume from the deepest frame afterwards.
			r.depth--
			if r.depth < 0 {
				r.done = true
			}
			if row, fresh := r.captureRow(); fresh {
				r.emitted++
				return row, true
			}
			continue
		}
		fr := r.frames[r.depth]
		if fr == nil {
			fr = r.newFrame(r.depth)
			r.frames[r.depth] = fr
		}
		if r.stepFrame(fr, &r.steps[r.depth]) {
			r.depth++
			continue
		}
		r.frames[r.depth] = nil
		for _, n := range r.steps[r.depth].binds {
			delete(r.bind, n)
		}
		r.depth--
		if r.depth < 0 {
			r.done = true
		}
	}
	return Row{}, false
}

// Collect drains the iterator.
func (r *Rows) Collect() []Row {
	var out []Row
	for {
		row, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

// newFrame resolves the step's bound terms against the current bindings
// and opens the longest index prefix they determine.
func (r *Rows) newFrame(d int) *frame {
	st := &r.steps[d]
	fr := &frame{}
	prefix := ""
	switch st.subjMode {
	case modeConst:
		fr.subjKey = store.ValueKey(st.c.Subject.Value)
	case modeBound:
		fr.subjKey = store.ValueKey(r.bind[st.subjVar])
	}
	if st.subjMode == modeConst || st.subjMode == modeBound {
		prefix = fr.subjKey + "|"
	}
	switch {
	case st.predMode == modeConst:
		fr.relKey = store.RelKey(st.c.Predicate.Value.Literal)
	case st.predMode == modeBound && !st.predIntra:
		v := r.bind[st.predVar]
		if v.IsEntity() {
			fr.dead = true // an entity value can never name a relation
		}
		fr.relKey = store.RelKey(v.Literal)
	}
	if prefix != "" && (st.predMode == modeConst || (st.predMode == modeBound && !st.predIntra)) {
		// No trailing separator: zero-object fact keys end at the
		// relation. The relKey verification below screens out relations
		// that merely extend this one.
		prefix += fr.relKey
	}
	switch {
	case st.objMode == modeConst:
		fr.objKey = store.ValueKey(st.c.Object.Value)
	case st.objMode == modeBound && !st.objIntra:
		fr.objKey = store.ValueKey(r.bind[st.objVar])
	}
	// Runtime access-path selection: a resolved predicate offers a second
	// contiguous range on the POS index, narrowed further by a resolved
	// object. Both prefixes are costed exactly (binary-searched range
	// widths over the live runs) and the narrower index wins; admit
	// re-verifies every resolved term, so either prefix over-approximating
	// is safe. Ties keep the subject-first index.
	if !fr.dead && (st.predMode == modeConst || (st.predMode == modeBound && !st.predIntra)) {
		objKey := ""
		if st.objMode == modeConst || (st.objMode == modeBound && !st.objIntra) {
			objKey = fr.objKey
		}
		posPrefix := store.POSPrefix(fr.relKey, objKey)
		if r.tree.EstimatePOSPrefix(posPrefix) < r.tree.EstimatePrefix(prefix) {
			indexPOSScans.Add(1)
			fr.cur = r.tree.ScanPOSPrefix(posPrefix)
			return fr
		}
	}
	if prefix == "" {
		indexFullScans.Add(1)
	}
	fr.cur = r.tree.ScanPrefix(prefix)
	return fr
}

// stepFrame advances the frame to its next extension, admitting new
// facts from the cursor as needed, and applies the extension's bindings.
// It returns false when the frame is exhausted.
func (r *Rows) stepFrame(fr *frame, st *step) bool {
	if fr.dead {
		return false
	}
	for {
		if fr.extPos < len(fr.exts) {
			v := fr.exts[fr.extPos]
			fr.extPos++
			// Re-assert the admitted fact's subject/predicate bindings:
			// a sibling extension of the previous fact may have left
			// stale values (admit set them once per fact).
			if st.subjMode == modeBind {
				r.bind[st.subjVar] = fr.fact.Subject
			}
			if st.predMode == modeBind {
				r.bind[st.predVar] = store.Value{Literal: fr.fact.Relation}
			}
			if st.objMode == modeBind {
				r.bind[st.objVar] = v
			}
			r.facts[r.depth] = fr.fact
			return true
		}
		_, f, ok := fr.cur.Next()
		if !ok {
			return false
		}
		if f.Confidence < r.tau {
			continue
		}
		if r.admit(fr, st, f) {
			fr.extPos = 0
		}
	}
}

// admit verifies the fact against the step's resolved terms, binds its
// introduced subject/predicate variables, and prepares the object
// extension list. It returns false (leaving fr.exts empty) on mismatch.
func (r *Rows) admit(fr *frame, st *step, f store.Fact) bool {
	fr.exts = fr.exts[:0]
	switch st.subjMode {
	case modeConst, modeBound:
		// The prefix over-approximates (a literal subject may itself
		// contain the key separator), so equality is re-checked.
		if store.ValueKey(f.Subject) != fr.subjKey {
			return false
		}
	case modeBind:
		r.bind[st.subjVar] = f.Subject
	}
	switch st.predMode {
	case modeConst:
		if store.RelKey(f.Relation) != fr.relKey {
			return false
		}
	case modeBound:
		rk := fr.relKey
		if st.predIntra {
			v := r.bind[st.predVar]
			if v.IsEntity() {
				return false
			}
			rk = store.RelKey(v.Literal)
		}
		if store.RelKey(f.Relation) != rk {
			return false
		}
	case modeBind:
		r.bind[st.predVar] = store.Value{Literal: f.Relation}
	}
	switch st.objMode {
	case modeWild:
		fr.exts = fr.one[:1]
	case modeConst, modeBound:
		want := fr.objKey
		if st.objIntra {
			want = store.ValueKey(r.bind[st.objVar])
		}
		found := false
		for i := range f.Objects {
			if store.ValueKey(f.Objects[i]) == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		fr.exts = fr.one[:1]
	case modeBind:
		// One extension per distinct object value of this fact.
		fr.extKeys = fr.extKeys[:0]
	objects:
		for _, o := range f.Objects {
			k := store.ValueKey(o)
			for _, prev := range fr.extKeys {
				if prev == k {
					continue objects
				}
			}
			fr.extKeys = append(fr.extKeys, k)
			fr.exts = append(fr.exts, o)
		}
		if len(fr.exts) == 0 {
			return false // a variable needs at least one object to bind
		}
	}
	fr.fact = f
	return true
}

// captureRow snapshots the current full assignment; fresh is false when
// an identical row (same bindings) was already emitted.
func (r *Rows) captureRow() (Row, bool) {
	row := Row{
		Bindings: make(map[string]store.Value, len(r.bind)),
		Facts:    make([]store.Fact, len(r.clauses)),
	}
	for n, v := range r.bind {
		row.Bindings[n] = v
	}
	for ci, f := range r.preFacts {
		row.Facts[ci] = f
	}
	for d, ci := range r.order {
		row.Facts[ci] = r.facts[d]
	}
	respell(r.clauses, &row)
	key := row.Key()
	if r.seen[key] {
		return Row{}, false
	}
	r.seen[key] = true
	return row, true
}

// respell spells each variable's value as its first occurrence in
// written clause order spells it in the row's evidence — the spelling
// ScanKB binds. Matching is case-insensitive, so the clause that binds
// a variable first in plan order may spell it differently (a literal
// join, or a row Verify re-checked after its evidence was respelled);
// respelling makes the row a function of its evidence, not of the plan.
func respell(clauses []Clause, row *Row) {
	var buf [8]string
	spelled := buf[:0]
	for ci := range clauses {
		c, f := &clauses[ci], &row.Facts[ci]
		for pos, t := range [3]*Term{&c.Subject, &c.Predicate, &c.Object} {
			if t.Kind != TermVar || slices.Contains(spelled, t.Name) {
				continue
			}
			spelled = append(spelled, t.Name)
			switch {
			case pos == 0:
				row.Bindings[t.Name] = f.Subject
			case pos == 1:
				row.Bindings[t.Name] = store.Value{Literal: f.Relation}
			default:
				bound := row.Bindings[t.Name]
				for _, o := range f.Objects {
					if sameValueKey(o, bound) {
						row.Bindings[t.Name] = o
						break
					}
				}
			}
		}
	}
}

// sameValueKey reports whether store.ValueKey(a) == store.ValueKey(b),
// without building either key.
func sameValueKey(a, b store.Value) bool {
	if a.IsEntity() || b.IsEntity() {
		return a.EntityID == b.EntityID
	}
	return a.Literal == b.Literal || intern.Lower(a.Literal) == intern.Lower(b.Literal)
}

// bindExt is one way a single fact can satisfy a single clause: the
// variables it would newly bind. Shared by the reference scanner and
// delta seeding.
type bindExt struct {
	names []string
	vals  []store.Value
}

// clauseMatches enumerates the extensions under which fact f satisfies
// clause c given existing bindings (nil allowed). Matching follows the
// package contract: index equality, per-object-position object terms,
// wildcard ignoring arity.
func clauseMatches(c Clause, f store.Fact, bind map[string]store.Value) []bindExt {
	var pend bindExt
	lookup := func(name string) (store.Value, bool) {
		for i, n := range pend.names {
			if n == name {
				return pend.vals[i], true
			}
		}
		v, ok := bind[name]
		return v, ok
	}
	// Subject.
	switch c.Subject.Kind {
	case TermConst:
		if store.ValueKey(f.Subject) != store.ValueKey(c.Subject.Value) {
			return nil
		}
	case TermVar:
		if v, ok := lookup(c.Subject.Name); ok {
			if store.ValueKey(f.Subject) != store.ValueKey(v) {
				return nil
			}
		} else {
			pend.names = append(pend.names, c.Subject.Name)
			pend.vals = append(pend.vals, f.Subject)
		}
	}
	// Predicate.
	switch c.Predicate.Kind {
	case TermConst:
		if store.RelKey(f.Relation) != store.RelKey(c.Predicate.Value.Literal) {
			return nil
		}
	case TermVar:
		if v, ok := lookup(c.Predicate.Name); ok {
			if v.IsEntity() || store.RelKey(f.Relation) != store.RelKey(v.Literal) {
				return nil
			}
		} else {
			pend.names = append(pend.names, c.Predicate.Name)
			pend.vals = append(pend.vals, store.Value{Literal: f.Relation})
		}
	}
	// Object.
	switch c.Object.Kind {
	case TermWild:
		return []bindExt{pend}
	case TermConst:
		want := store.ValueKey(c.Object.Value)
		for i := range f.Objects {
			if store.ValueKey(f.Objects[i]) == want {
				return []bindExt{pend}
			}
		}
		return nil
	default: // TermVar
		if v, ok := lookup(c.Object.Name); ok {
			want := store.ValueKey(v)
			for i := range f.Objects {
				if store.ValueKey(f.Objects[i]) == want {
					return []bindExt{pend}
				}
			}
			return nil
		}
		var out []bindExt
		var seenKeys []string
	objects:
		for _, o := range f.Objects {
			k := store.ValueKey(o)
			for _, prev := range seenKeys {
				if prev == k {
					continue objects
				}
			}
			seenKeys = append(seenKeys, k)
			ext := bindExt{
				names: append(append([]string(nil), pend.names...), c.Object.Name),
				vals:  append(append([]store.Value(nil), pend.vals...), o),
			}
			out = append(out, ext)
		}
		return out
	}
}

// ScanKB is the reference evaluator: a naive nested-loop scan over a
// materialized KB's fact slice, in the pattern's written clause order.
// It defines the result set the streaming engine must reproduce (the
// property tests compare the two), and doubles as the
// scan-after-materialize baseline in the benchmark harness.
func ScanKB(kb *store.KB, p *Pattern) []Row {
	if kb == nil || p.validate() != nil {
		return nil
	}
	facts := kb.Facts()
	bind := map[string]store.Value{}
	rowFacts := make([]store.Fact, len(p.Clauses))
	seen := map[string]bool{}
	var out []Row
	var rec func(ci int) bool
	rec = func(ci int) bool {
		if ci == len(p.Clauses) {
			row := Row{
				Bindings: make(map[string]store.Value, len(bind)),
				Facts:    append([]store.Fact(nil), rowFacts...),
			}
			for n, v := range bind {
				row.Bindings[n] = v
			}
			key := row.Key()
			if seen[key] {
				return false
			}
			seen[key] = true
			out = append(out, row)
			return p.Limit > 0 && len(out) >= p.Limit
		}
		for i := range facts {
			if facts[i].Confidence < p.Tau {
				continue
			}
			for _, ext := range clauseMatches(p.Clauses[ci], facts[i], bind) {
				for j, n := range ext.names {
					bind[n] = ext.vals[j]
				}
				rowFacts[ci] = facts[i]
				stop := rec(ci + 1)
				for _, n := range ext.names {
					delete(bind, n)
				}
				if stop {
					return true
				}
			}
		}
		return false
	}
	rec(0)
	return out
}

// EvalDelta evaluates a standing pattern incrementally against one
// store.Delta: every added or upgraded fact is seeded into each clause
// it satisfies, and the remaining clauses are planned (with the seed's
// variables pre-bound) and streamed against the post-delta tree. The
// result is every match of p in t that involves at least one changed
// fact — the increment a filtered watch emits — deduplicated, sorted by
// Row.Key, and truncated to p.Limit. A match whose seed fact was merely
// upgraded (not newly added) re-emits with the upgraded evidence.
func EvalDelta(t *store.Tree, p *Pattern, d store.Delta) []Row {
	if t == nil || p.validate() != nil {
		return nil
	}
	seen := map[string]bool{}
	var out []Row
	evalSeed := func(ci int, f store.Fact) {
		if f.Confidence < p.Tau {
			return
		}
		for _, ext := range clauseMatches(p.Clauses[ci], f, nil) {
			seed := make(map[string]store.Value, len(ext.names))
			boundSet := make(map[string]bool, len(ext.names))
			for i, n := range ext.names {
				seed[n] = ext.vals[i]
				boundSet[n] = true
			}
			restIdx := make([]int, 0, len(p.Clauses)-1)
			restClauses := make([]Clause, 0, len(p.Clauses)-1)
			for i, c := range p.Clauses {
				if i != ci {
					restIdx = append(restIdx, i)
					restClauses = append(restClauses, c)
				}
			}
			plan := planClauses(t, restClauses, boundSet)
			order := make([]int, len(plan.Order))
			for k, ri := range plan.Order {
				order[k] = restIdx[ri]
			}
			rows := runSub(t, p.Clauses, order, p.Tau, 0, seed, map[int]store.Fact{ci: f})
			for {
				row, ok := rows.Next()
				if !ok {
					break
				}
				if key := row.Key(); !seen[key] {
					seen[key] = true
					out = append(out, row)
				}
			}
		}
	}
	for ci := range p.Clauses {
		for _, f := range d.Added {
			evalSeed(ci, f)
		}
		for _, f := range d.Upgraded {
			evalSeed(ci, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out
}

// Verify re-checks one answer row against the current tree: it reports
// whether a row with the same bindings (which must cover every variable
// of p), spelled as its evidence spells them, is still an answer of p,
// and returns it with its supporting facts refreshed to the tree's
// current winners. This is the row-level re-check cached answers go
// through when a delta removes or upgrades a fact a row cited — the row
// may survive on alternate support, so dropping it outright would
// under-answer.
func Verify(t *store.Tree, p *Pattern, bindings map[string]store.Value) (Row, bool) {
	if t == nil || p.validate() != nil {
		return Row{}, false
	}
	seed := make(map[string]store.Value, len(bindings))
	boundSet := make(map[string]bool, len(bindings))
	for n, v := range bindings {
		seed[n] = v
		boundSet[n] = true
	}
	// Matching ignores case, so the seeded run may also find evidence
	// spelling a binding otherwise: that is another row.
	want := Row{Bindings: bindings}.Key()
	plan := planClauses(t, p.Clauses, boundSet)
	rows := runSub(t, p.Clauses, plan.Order, p.Tau, 0, seed, nil)
	for row, ok := rows.Next(); ok; row, ok = rows.Next() {
		if row.Key() == want {
			return row, true
		}
	}
	return Row{}, false
}
