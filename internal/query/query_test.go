package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qkbfly/internal/kb/store"
)

// --- randomized corpus ---------------------------------------------------

// randValue draws from a small closed vocabulary so joins actually hit.
func randValue(rng *rand.Rand) store.Value {
	if rng.Intn(2) == 0 {
		return store.Value{EntityID: fmt.Sprintf("E%d", rng.Intn(8))}
	}
	return store.Value{Literal: fmt.Sprintf("lit%d", rng.Intn(6))}
}

func randFact(rng *rand.Rand, doc string, sent int) store.Fact {
	f := store.Fact{
		Subject:    randValue(rng),
		Relation:   fmt.Sprintf("rel%d", rng.Intn(4)),
		Confidence: float64(rng.Intn(10)) / 10,
		Source:     store.Provenance{DocID: doc, SentIndex: sent},
		Pattern:    fmt.Sprintf("p%d", rng.Intn(3)),
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		f.Objects = append(f.Objects, randValue(rng))
	}
	return f
}

// randTree builds a multi-run tree of nSegs sealed random shards.
func randTree(rng *rand.Rand, nSegs int) *store.Tree {
	t := store.NewTree(nil)
	for s := 0; s < nSegs; s++ {
		kb := store.New()
		doc := fmt.Sprintf("doc%d", s)
		for i, n := 0, 4+rng.Intn(12); i < n; i++ {
			kb.AddFact(randFact(rng, doc, i))
		}
		t = t.Push(store.SealSegment(kb, doc), uint64(s))
	}
	return t
}

// randTerm draws a term for one clause position; vars come from a tiny
// shared pool so multi-clause patterns join.
func randTerm(rng *rand.Rand, predicate bool) Term {
	switch rng.Intn(5) {
	case 0:
		return Wildcard()
	case 1, 2:
		return Var(fmt.Sprintf("v%d", rng.Intn(3)))
	default:
		if predicate {
			return Literal(fmt.Sprintf("rel%d", rng.Intn(4)))
		}
		return Literal(fmt.Sprintf("lit%d", rng.Intn(6)))
	}
}

func randPattern(rng *rand.Rand) *Pattern {
	p := &Pattern{Tau: []float64{0, 0.3, 0.6}[rng.Intn(3)]}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		c := Clause{
			Subject:   randTerm(rng, false),
			Predicate: randTerm(rng, true),
			Object:    randTerm(rng, false),
		}
		if rng.Intn(2) == 0 {
			c.Subject = Entity(fmt.Sprintf("E%d", rng.Intn(8)))
		}
		p.Clauses = append(p.Clauses, c)
	}
	return p
}

func rowKeys(rows []Row) []string {
	if len(rows) == 0 {
		return nil
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// --- engine vs reference -------------------------------------------------

// TestRunMatchesScanReference is the byte-identity property: for random
// trees and random patterns, the streaming engine's answer set equals
// filtering the materialized KB with the same pattern and τ.
func TestRunMatchesScanReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		tree := randTree(rng, 1+rng.Intn(6))
		kb := tree.Materialize()
		for q := 0; q < 8; q++ {
			p := randPattern(rng)
			rows, err := Run(tree, p)
			if err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
			got := rowKeys(rows.Collect())
			want := rowKeys(ScanKB(kb, p))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pattern %q tau=%g:\nengine    %v\nreference %v",
					seed, p.String(), p.Tau, got, want)
			}
		}
	}
}

// TestRunMatchesScanReferenceAcrossSpellings: with literals spelled in
// either case, matching ignores case, so which fact binds a variable
// first depends on the plan. Rows must still equal the reference's,
// which binds in written clause order, and Verify must keep each row
// as it is.
func TestRunMatchesScanReferenceAcrossSpellings(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		tree := store.NewTree(nil)
		for s, n := 0, 1+rng.Intn(6); s < n; s++ {
			kb := store.New()
			doc := fmt.Sprintf("doc%d", s)
			for i, m := 0, 4+rng.Intn(12); i < m; i++ {
				f := randFact(rng, doc, i)
				for j := range f.Objects {
					if rng.Intn(2) == 0 {
						f.Objects[j].Literal = strings.ToUpper(f.Objects[j].Literal)
					}
				}
				kb.AddFact(f)
			}
			tree = tree.Push(store.SealSegment(kb, doc), uint64(s))
		}
		kb := tree.Materialize()
		for q := 0; q < 8; q++ {
			p := randPattern(rng)
			rows, err := Run(tree, p)
			if err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
			all := rows.Collect()
			if got, want := rowKeys(all), rowKeys(ScanKB(kb, p)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pattern %q tau=%g:\nengine    %v\nreference %v",
					seed, p.String(), p.Tau, got, want)
			}
			for _, r := range all {
				if vr, ok := Verify(tree, p, r.Bindings); !ok || vr.Key() != r.Key() {
					t.Fatalf("seed %d pattern %q: row %q verified as %q (ok=%v)", seed, p.String(), r.Key(), vr.Key(), ok)
				}
			}
		}
	}
}

// TestRunSupportingFacts: every emitted row's supporting facts actually
// satisfy their clauses under the row's bindings and pass τ.
func TestRunSupportingFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree := randTree(rng, 4)
	for q := 0; q < 20; q++ {
		p := randPattern(rng)
		rows, err := Run(tree, p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			row, ok := rows.Next()
			if !ok {
				break
			}
			if len(row.Facts) != len(p.Clauses) {
				t.Fatalf("row has %d facts for %d clauses", len(row.Facts), len(p.Clauses))
			}
			for ci, c := range p.Clauses {
				f := row.Facts[ci]
				if f.Confidence < p.Tau {
					t.Fatalf("clause %d fact below tau: %v", ci, f)
				}
				if len(clauseMatches(c, f, row.Bindings)) == 0 {
					t.Fatalf("clause %d fact %s does not satisfy bindings %v", ci, f.String(), row.Bindings)
				}
			}
		}
	}
}

// --- fixtures ------------------------------------------------------------

func fixtureTree(t *testing.T) *store.Tree {
	t.Helper()
	kb := store.New()
	add := func(subj store.Value, rel string, conf float64, objs ...store.Value) {
		kb.AddFact(store.Fact{Subject: subj, Relation: rel, Objects: objs,
			Confidence: conf, Source: store.Provenance{DocID: "d", SentIndex: kb.Len()}})
	}
	e := func(id string) store.Value { return store.Value{EntityID: id} }
	l := func(s string) store.Value { return store.Value{Literal: s} }
	add(e("Ann"), "plays_for", 0.9, e("Orion"))
	add(e("Bob"), "plays_for", 0.5, e("Orion"))
	add(e("Orion"), "based_in", 0.8, l("Lyon"))
	add(e("Ann"), "born_in", 0.7, l("Lyon"), l("1990"))
	add(e("Solo"), "retired", 0.6) // zero objects
	return store.NewTree(nil).Push(store.SealSegment(kb, "d"), 0)
}

func runKeys(t *testing.T, tree *store.Tree, src string, tau float64, limit int) []string {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	p.Tau, p.Limit = tau, limit
	rows, err := Run(tree, p)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return rowKeys(rows.Collect())
}

func TestRunFixtures(t *testing.T) {
	tree := fixtureTree(t)
	cases := []struct {
		name  string
		src   string
		tau   float64
		limit int
		want  []string
	}{
		{"chain join", "?p plays_for ?team ; ?team based_in ?city", 0, 0,
			[]string{"city=l:Lyon\x01p=e:Ann\x01team=e:Orion", "city=l:Lyon\x01p=e:Bob\x01team=e:Orion"}},
		{"tau filters join", "?p plays_for ?team ; ?team based_in ?city", 0.6, 0,
			[]string{"city=l:Lyon\x01p=e:Ann\x01team=e:Orion"}},
		{"constant subject", "e:Ann plays_for ?t", 0, 0, []string{"t=e:Orion"}},
		{"relation case-insensitive", "e:Ann PLAYS_FOR ?t", 0, 0, []string{"t=e:Orion"}},
		{"literal object case-insensitive", "?s based_in lyon", 0, 0, []string{"s=e:Orion"}},
		{"predicate variable", "e:Ann ?r e:Orion", 0, 0, []string{"r=l:plays_for"}},
		{"object fan-out", "e:Ann born_in ?o", 0, 0, []string{"o=l:1990", "o=l:Lyon"}},
		{"wildcard matches zero objects", "e:Solo ?r _", 0, 0, []string{"r=l:retired"}},
		{"variable needs an object", "e:Solo retired ?o", 0, 0, nil},
		{"boolean query", "e:Orion based_in _", 0, 0, []string{""}},
		{"boolean no match", "e:Orion based_in e:Ann", 0, 0, nil},
		{"distinct rows", "?p plays_for e:Orion ; ?p plays_for ?t", 0, 0,
			[]string{"p=e:Ann\x01t=e:Orion", "p=e:Bob\x01t=e:Orion"}},
		{"limit", "?p plays_for ?t", 0, 1, []string{"p=e:Ann\x01t=e:Orion"}},
		{"shared var subject-object", "?x plays_for ?x", 0, 0, nil},
	}
	for _, tc := range cases {
		got := runKeys(t, tree, tc.src, tc.tau, tc.limit)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// --- parser and canonicalization ----------------------------------------

func TestParse(t *testing.T) {
	p, err := Parse(`?a "plays for" "New York" ; e:E1 rel ?a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 2 {
		t.Fatalf("parsed %d clauses", len(p.Clauses))
	}
	if got := p.Clauses[0].Predicate.Value.Literal; got != "plays for" {
		t.Fatalf("quoted predicate = %q", got)
	}
	if got := p.Clauses[0].Object.Value.Literal; got != "New York" {
		t.Fatalf("quoted object = %q", got)
	}
	if p.Clauses[1].Subject.Value.EntityID != "E1" {
		t.Fatalf("entity subject = %+v", p.Clauses[1].Subject)
	}
	if p.Clauses[1].Object != Var("a") {
		t.Fatalf("object var = %+v", p.Clauses[1].Object)
	}
	for _, bad := range []string{"", "  ;  ", "a b", "a b c d", "? rel x", `a "unterminated x`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	// Newlines separate clauses like semicolons.
	p2, err := Parse("?a rel ?b\n?b rel ?c")
	if err != nil || len(p2.Clauses) != 2 {
		t.Fatalf("newline clauses: %v, %d", err, len(p2.Clauses))
	}
}

func TestCanonical(t *testing.T) {
	a, _ := Parse(`?x Plays_For ?y ; ?y based_in "Lyon"`)
	b, _ := Parse(`?p plays_for ?q ; ?q BASED_IN lyon`)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("alpha-equivalent patterns disagree:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	c, _ := Parse(`?x plays_for ?y ; ?x based_in lyon`) // different join shape
	if a.Canonical() == c.Canonical() {
		t.Fatal("different join shapes share a canonical form")
	}
	d, _ := Parse(`?x plays_for ?y ; ?y based_in lyon`)
	d.Tau = 0.5
	if a.Canonical() == d.Canonical() {
		t.Fatal("tau not folded into canonical form")
	}
}

// --- planner -------------------------------------------------------------

func TestPlanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := randTree(rng, 4)
	// An unbound scan clause written first must be deferred behind the
	// constant-subject clause that binds its variable.
	p := &Pattern{Clauses: []Clause{
		{Subject: Var("a"), Predicate: Literal("rel0"), Object: Var("b")},
		{Subject: Entity("E1"), Predicate: Literal("rel1"), Object: Var("a")},
	}}
	plan := PlanQuery(tree, p)
	if !reflect.DeepEqual(plan.Order, []int{1, 0}) {
		t.Fatalf("plan order = %v, want [1 0]", plan.Order)
	}
	if plan.Est[0] > tree.FactCount() {
		t.Fatalf("constant-subject estimate %d exceeds full scan", plan.Est[0])
	}
	// With a seed binding the scan clause becomes a bound-subject probe.
	sub := planClauses(tree, p.Clauses[:1], map[string]bool{"a": true})
	if sub.Est[0] != estBoundSubject {
		t.Fatalf("bound-subject estimate = %d, want %d", sub.Est[0], estBoundSubject)
	}
}

// --- delta evaluation ----------------------------------------------------

// TestEvalDeltaIncrement: for random slides, the delta evaluation yields
// every row that is new in v2 relative to v1, and nothing outside v2.
func TestEvalDeltaIncrement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		old := randTree(rng, 3)
		kb := store.New()
		for i, n := 0, 6+rng.Intn(8); i < n; i++ {
			kb.AddFact(randFact(rng, "slide", i))
		}
		seg := store.SealSegment(kb, "slide")
		new := old.Push(seg, 99)
		delta, _ := store.DiffTrees(old, new, []*store.Segment{seg})
		for q := 0; q < 6; q++ {
			p := randPattern(rng)
			inc := rowKeys(EvalDelta(new, p, delta))
			oldRows, _ := Run(old, p)
			newRows, _ := Run(new, p)
			oldSet := map[string]bool{}
			for _, k := range rowKeys(oldRows.Collect()) {
				oldSet[k] = true
			}
			newSet := map[string]bool{}
			for _, k := range rowKeys(newRows.Collect()) {
				newSet[k] = true
			}
			incSet := map[string]bool{}
			for _, k := range inc {
				if !newSet[k] {
					t.Fatalf("seed %d pattern %q: delta row %q not in v2", seed, p.String(), k)
				}
				incSet[k] = true
			}
			for k := range newSet {
				if !oldSet[k] && !incSet[k] {
					t.Fatalf("seed %d pattern %q: new row %q missed by delta eval", seed, p.String(), k)
				}
			}
		}
	}
}

func TestEvalDeltaUpgradeCrossesTau(t *testing.T) {
	low := store.New()
	low.AddFact(store.Fact{Subject: store.Value{EntityID: "A"}, Relation: "r",
		Objects: []store.Value{{EntityID: "B"}}, Confidence: 0.2,
		Source: store.Provenance{DocID: "d1"}})
	hi := store.New()
	hi.AddFact(store.Fact{Subject: store.Value{EntityID: "A"}, Relation: "r",
		Objects: []store.Value{{EntityID: "B"}}, Confidence: 0.9,
		Source: store.Provenance{DocID: "d2"}})
	old := store.NewTree(nil).Push(store.SealSegment(low, "d1"), 0)
	seg := store.SealSegment(hi, "d2")
	new := old.Push(seg, 1)
	delta, _ := store.DiffTrees(old, new, []*store.Segment{seg})
	if len(delta.Upgraded) != 1 {
		t.Fatalf("delta = %+v, want one upgrade", delta)
	}
	p, _ := Parse("?x r ?y")
	p.Tau = 0.5
	rows := EvalDelta(new, p, delta)
	if len(rows) != 1 || rows[0].Key() != "x=e:A\x01y=e:B" {
		t.Fatalf("upgrade crossing tau: rows = %v", rowKeys(rows))
	}
}

// --- string form ---------------------------------------------------------

func TestPatternString(t *testing.T) {
	p, err := Parse(`?a "plays for" e:E1 ; _ rel ?b`)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, frag := range []string{"?a", `"plays for"`, "e:E1", "_", "?b"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if back.Canonical() != p.Canonical() {
		t.Fatalf("String() not canonical-stable: %q vs %q", back.Canonical(), p.Canonical())
	}
}

// TestPlanPOSIndexEstimate: a clause with unbound subject but constant
// predicate+object is costed by its POS range, not the full scan, and
// plans ahead of a wider clause over the same tree.
func TestPlanPOSIndexEstimate(t *testing.T) {
	kb := store.New()
	for i := 0; i < 40; i++ {
		kb.AddFact(store.Fact{
			Subject: store.Value{EntityID: fmt.Sprintf("E%d", i)}, Relation: "common",
			Objects: []store.Value{{Literal: fmt.Sprintf("lit%d", i)}}, Confidence: 0.9,
			Source: store.Provenance{DocID: "d", SentIndex: i}})
	}
	kb.AddFact(store.Fact{
		Subject: store.Value{EntityID: "E1"}, Relation: "rare",
		Objects: []store.Value{{Literal: "needle"}}, Confidence: 0.9,
		Source: store.Provenance{DocID: "d", SentIndex: 99}})
	tree := store.NewTree(nil).Push(store.SealSegment(kb, "d"), 0)

	p, err := Parse(`?x common ?y ; ?z rare needle`)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanQuery(tree, p)
	if plan.Order[0] != 1 {
		t.Fatalf("plan order = %v, want the rare POS-indexed clause first", plan.Order)
	}
	if plan.Est[0] != 1 {
		t.Fatalf("rare-clause estimate = %d, want exactly 1 (POS range width)", plan.Est[0])
	}
	if plan.Est[1] <= 1 {
		t.Fatalf("common-clause estimate = %d, want the wide relation range", plan.Est[1])
	}
}

// TestPlanIndexTieBreakStable: clause permutations of the same pattern
// plan to the same clause sequence even when scores and estimates tie —
// the canonical-string tie-break makes plan shape a function of pattern
// content, not author ordering.
func TestPlanIndexTieBreakStable(t *testing.T) {
	tree := store.NewTree(nil) // empty: every clause estimates equal
	clauses := []Clause{
		{Subject: Var("a"), Predicate: Literal("relC"), Object: Var("b")},
		{Subject: Var("a"), Predicate: Literal("relA"), Object: Var("b")},
		{Subject: Var("a"), Predicate: Literal("relB"), Object: Var("b")},
	}
	render := func(p *Plan, cs []Clause) []string {
		out := make([]string, len(p.Order))
		for i, ci := range p.Order {
			out[i] = clauseKey(cs[ci])
		}
		return out
	}
	base := render(planClauses(tree, clauses, nil), clauses)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		cs := make([]Clause, len(perm))
		for i, j := range perm {
			cs[i] = clauses[j]
		}
		got := render(planClauses(tree, cs, nil), cs)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("permutation %v planned %v, base order planned %v", perm, got, base)
		}
	}
	if base[0] != clauseKey(clauses[1]) {
		t.Fatalf("tie-break winner = %q, want lexicographically smallest clause %q",
			base[0], clauseKey(clauses[1]))
	}

	// On a populated tree, randomized patterns must also plan
	// permutation-independently.
	rng := rand.New(rand.NewSource(41))
	popTree := randTree(rng, 3)
	for q := 0; q < 25; q++ {
		p := randPattern(rng)
		if len(p.Clauses) < 2 {
			continue
		}
		want := render(planClauses(popTree, p.Clauses, nil), p.Clauses)
		rev := make([]Clause, len(p.Clauses))
		for i, c := range p.Clauses {
			rev[len(rev)-1-i] = c
		}
		if got := render(planClauses(popTree, rev, nil), rev); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %q: reversed clauses planned %v, want %v", p.String(), got, want)
		}
	}
}

// TestExecPOSIndexSelection: a variable-subject clause with a constant
// predicate executes off the POS index (the pos-scan counter moves) and
// still answers exactly the reference rows.
func TestExecPOSIndexSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tree := randTree(rng, 5)
	kb := tree.Materialize()
	p, err := Parse(`?x rel2 ?y`)
	if err != nil {
		t.Fatal(err)
	}
	pos0, _ := IndexCounters()
	rows, err := Run(tree, p)
	if err != nil {
		t.Fatal(err)
	}
	got := rowKeys(rows.Collect())
	pos1, _ := IndexCounters()
	if pos1 == pos0 {
		t.Fatal("variable-subject constant-predicate clause did not use the POS index")
	}
	if want := rowKeys(ScanKB(kb, p)); !reflect.DeepEqual(got, want) {
		t.Fatalf("POS-indexed answer differs:\nengine    %v\nreference %v", got, want)
	}
}

// TestVerifyRowMaintainsSupport: Verify re-admits a row whose bindings
// still hold (refreshing its evidence to current winners) and rejects a
// binding assignment with no support.
func TestVerifyRowMaintainsSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tree := randTree(rng, 4)
	p, err := Parse(`?x rel1 ?y`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(tree, p)
	if err != nil {
		t.Fatal(err)
	}
	all := rows.Collect()
	if len(all) == 0 {
		t.Skip("fixture produced no rows")
	}
	for _, r := range all {
		vr, ok := Verify(tree, p, r.Bindings)
		if !ok {
			t.Fatalf("valid row %q failed verification", r.Key())
		}
		if vr.Key() != r.Key() {
			t.Fatalf("verification rebound the row: %q vs %q", vr.Key(), r.Key())
		}
		for _, f := range vr.Facts {
			if f.Confidence < p.Tau {
				t.Fatalf("verified row %q cites sub-tau evidence", vr.Key())
			}
		}
	}
	if _, ok := Verify(tree, p, map[string]store.Value{
		"x": {EntityID: "no-such-entity"}, "y": {Literal: "nope"},
	}); ok {
		t.Fatal("unsupported binding assignment verified")
	}
}

// FuzzParsePattern: Parse never panics, and the canonical form of a
// pattern it accepts parses back, with τ and limit set again, to the
// same canonical form.
func FuzzParsePattern(f *testing.F) {
	for _, src := range []string{
		`?a "plays for" "New York" ; e:E1 rel ?a`, "?a rel ?b\n?b rel ?c",
		`?x Plays_For ?y ; ?y based_in "Lyon"`, `e:Solo ?r _`, `?s "a \"q\" \\ b" ?o`,
		"", "?a rel", `?a "unterminated`, "? rel x", "e: rel x", "?a e:E1 ?b", "a b c d",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		canon := p.Canonical()
		clauses := canon[:strings.LastIndex(canon, "|tau=")]
		back, err := Parse(clauses)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, src, err)
		}
		back.Tau, back.Limit = p.Tau, p.Limit
		if got := back.Canonical(); got != canon {
			t.Fatalf("canonical form %q of %q parses back to %q", canon, src, got)
		}
	})
}
