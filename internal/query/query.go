// Package query implements a streaming pattern-query engine over the
// segmented KB store. A query is a conjunction of (subject, predicate,
// object) clauses whose terms are constants, variables, or wildcards,
// plus a confidence threshold τ and an optional row limit. Execution
// composes prefix-scan iterators directly over the merge tree's sorted
// segment runs (store.Tree.ScanPrefix) — the tree is never materialized
// on the query path — with clause order chosen by a statistics-free
// greedy planner (plan.go) and bindings streamed clause-to-clause by a
// backtracking executor (exec.go).
//
// Matching semantics, fixed against the store's dedup-key contract:
//
//   - A clause matches a fact per object position: a constant or bound
//     object term matches when any one object equals it; an unbound
//     object variable yields one candidate binding per distinct object
//     value; the wildcard `_` matches regardless of object count (it is
//     the only object term that matches a zero-object fact).
//   - Equality is index equality: entity values compare by ID, literal
//     values and relations compare case-insensitively (the dedup key
//     lowers them). Bound values keep their surface spelling: a
//     variable is spelled as its first occurrence in written clause
//     order spells it in the row's supporting facts, whatever order the
//     plan bound it in.
//   - A fact participates only when Confidence ≥ τ.
//
// Result rows are distinct over their exact bindings. A Rows iterator
// yields them in deterministic executor order; callers needing a
// canonical order sort by Row.Key.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"qkbfly/internal/kb/store"
)

// TermKind discriminates the three term shapes of a clause.
type TermKind int

const (
	TermConst TermKind = iota // a constant value (entity, literal, or relation name)
	TermVar                   // a named variable, written ?name
	TermWild                  // the wildcard _, matches anything without binding
)

// Term is one position of a clause. For TermConst the Value carries the
// constant: subjects and objects use store.Value directly (EntityID for
// e:… references, Literal otherwise); predicate constants put the
// relation name in Value.Literal.
type Term struct {
	Kind  TermKind
	Name  string // variable name, without the leading '?'
	Value store.Value
}

// Var returns a variable term ?name.
func Var(name string) Term { return Term{Kind: TermVar, Name: name} }

// Wildcard returns the _ term.
func Wildcard() Term { return Term{Kind: TermWild} }

// Entity returns a constant term referencing entity id.
func Entity(id string) Term { return Term{Kind: TermConst, Value: store.Value{EntityID: id}} }

// Literal returns a constant literal term (also used for constant
// predicates, where the literal is the relation name).
func Literal(s string) Term { return Term{Kind: TermConst, Value: store.Value{Literal: s}} }

// Clause is one (subject, predicate, object) pattern.
type Clause struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// Pattern is a parsed query: a conjunction of clauses filtered by τ,
// optionally truncated to Limit rows (0 = unlimited; truncation follows
// the executor's streaming order).
type Pattern struct {
	Clauses []Clause
	Tau     float64
	Limit   int
}

// Row is one query answer: a value per variable, plus one supporting
// fact per clause (in the pattern's clause order) chosen by the
// executor. Distinctness and Key cover the bindings only — supporting
// facts are evidence, not identity.
type Row struct {
	Bindings map[string]store.Value
	Facts    []store.Fact
}

// Key returns the canonical identity of the row's bindings: variables
// sorted by name, values in surface spelling. Rows with equal keys are
// the same answer.
func (r Row) Key() string {
	names := make([]string, 0, len(r.Bindings))
	for n := range r.Bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(n)
		b.WriteByte('=')
		v := r.Bindings[n]
		if v.IsEntity() {
			b.WriteString("e:")
			b.WriteString(v.EntityID)
		} else {
			b.WriteString("l:")
			b.WriteString(v.Literal)
		}
	}
	return b.String()
}

// errPattern wraps parse and validation failures.
func errPattern(format string, args ...any) error {
	return fmt.Errorf("query: %s", fmt.Sprintf(format, args...))
}

// Parse parses the query grammar:
//
//	query  := clause (';' clause)*           (newlines also separate clauses)
//	clause := term term term                 (subject predicate object)
//	term   := '?'name | '_' | 'e:'id | '"'text'"' | bare
//
// A bare subject/object token is a literal; the predicate token (bare or
// quoted) is the relation name. Quoted strings use \" and \\ escapes and
// may contain spaces. τ and limit are not part of the text form — set
// them on the returned Pattern.
func Parse(src string) (*Pattern, error) {
	p := &Pattern{}
	for _, line := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' }) {
		if strings.TrimSpace(line) == "" {
			continue
		}
		toks, err := tokenize(line)
		if err != nil {
			return nil, err
		}
		if len(toks) != 3 {
			return nil, errPattern("clause %q has %d terms, want 3 (subject predicate object)", strings.TrimSpace(line), len(toks))
		}
		var c Clause
		if c.Subject, err = parseTerm(toks[0], false); err != nil {
			return nil, err
		}
		if c.Predicate, err = parseTerm(toks[1], true); err != nil {
			return nil, err
		}
		if c.Object, err = parseTerm(toks[2], false); err != nil {
			return nil, err
		}
		p.Clauses = append(p.Clauses, c)
	}
	if len(p.Clauses) == 0 {
		return nil, errPattern("empty pattern")
	}
	return p, nil
}

// token is one lexed term with a flag recalling whether it was quoted
// (a quoted "?x" is the three-character literal, not a variable).
type token struct {
	text   string
	quoted bool
}

func tokenize(line string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t' || line[i] == '\r':
			i++
		case line[i] == '"':
			var b strings.Builder
			j := i + 1
			for ; j < len(line) && line[j] != '"'; j++ {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				b.WriteByte(line[j])
			}
			if j >= len(line) {
				return nil, errPattern("unterminated quote in %q", strings.TrimSpace(line))
			}
			toks = append(toks, token{text: b.String(), quoted: true})
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
				j++
			}
			toks = append(toks, token{text: line[i:j]})
			i = j
		}
	}
	return toks, nil
}

func parseTerm(t token, predicate bool) (Term, error) {
	if t.quoted {
		return Literal(t.text), nil
	}
	switch {
	case t.text == "_":
		return Wildcard(), nil
	case strings.HasPrefix(t.text, "?"):
		if len(t.text) == 1 {
			return Term{}, errPattern("variable with empty name")
		}
		return Var(t.text[1:]), nil
	case !predicate && strings.HasPrefix(t.text, "e:"):
		if len(t.text) == 2 {
			return Term{}, errPattern("entity reference with empty ID")
		}
		return Entity(t.text[2:]), nil
	default:
		return Literal(t.text), nil
	}
}

// Canonical returns the normalized form of the pattern — the serve
// layer's cache key component. Variables are α-renamed in order of first
// appearance, constants are rendered in index-key form (entities as
// e:<id>, literals and relations lowered and quoted), and τ and limit
// are folded in, so two patterns that can only ever produce identical
// results map to one key. The clauses are in the Parse grammar: parsing
// them back, with τ and limit set again, gives the same form.
func (p *Pattern) Canonical() string {
	var buf [8]string
	names := buf[:0] // a variable's canonical name is its index here
	b := make([]byte, 0, 64)
	for i := range p.Clauses {
		if i > 0 {
			b = append(b, " ; "...)
		}
		c := &p.Clauses[i]
		for pos, t := range [3]*Term{&c.Subject, &c.Predicate, &c.Object} {
			if pos > 0 {
				b = append(b, ' ')
			}
			switch {
			case t.Kind == TermWild:
				b = append(b, '_')
			case t.Kind == TermVar:
				n := slices.Index(names, t.Name)
				if n < 0 {
					n = len(names)
					names = append(names, t.Name)
				}
				b = append(b, '?')
				b = strconv.AppendInt(b, int64(n), 10)
			case pos != 1 && t.Value.IsEntity():
				b = append(b, "e:"...)
				b = append(b, t.Value.EntityID...)
			default:
				b = appendQuoted(b, store.RelKey(t.Value.Literal))
			}
		}
	}
	b = append(b, "|tau="...)
	b = strconv.AppendFloat(b, p.Tau, 'g', -1, 64)
	b = append(b, "|limit="...)
	b = strconv.AppendInt(b, int64(p.Limit), 10)
	return string(b)
}

// appendQuoted appends s as a quoted token of the Parse grammar: a
// backslash before each quote and backslash.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b = append(b, '\\')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

// String renders the pattern back in source grammar (surface spellings,
// not canonicalized).
func (p *Pattern) String() string {
	term := func(t Term, predicate bool) string {
		switch t.Kind {
		case TermWild:
			return "_"
		case TermVar:
			return "?" + t.Name
		default:
			if !predicate && t.Value.IsEntity() {
				return "e:" + t.Value.EntityID
			}
			if strings.ContainsAny(t.Value.Literal, " \t\r\n;\"") || t.Value.Literal == "" {
				return strconv.Quote(t.Value.Literal)
			}
			return t.Value.Literal
		}
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = term(c.Subject, false) + " " + term(c.Predicate, true) + " " + term(c.Object, false)
	}
	return strings.Join(parts, " ; ")
}

// Vars returns the pattern's variable names in first-appearance order.
func (p *Pattern) Vars() []string {
	seen := map[string]bool{}
	var out []string
	add := func(t Term) {
		if t.Kind == TermVar && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	for _, c := range p.Clauses {
		add(c.Subject)
		add(c.Predicate)
		add(c.Object)
	}
	return out
}

// Validate rejects patterns the executor cannot run, with the same
// checks Run performs — callers validating user input before caching or
// registering standing watches use it directly.
func (p *Pattern) Validate() error { return p.validate() }

// validate rejects patterns the executor cannot run.
func (p *Pattern) validate() error {
	if p == nil || len(p.Clauses) == 0 {
		return errPattern("empty pattern")
	}
	for i, c := range p.Clauses {
		if c.Predicate.Kind == TermConst && c.Predicate.Value.IsEntity() {
			return errPattern("clause %d: predicate cannot be an entity reference", i)
		}
		_ = c
	}
	return nil
}
