// Package store implements the on-the-fly knowledge base (K): the output
// of QKBfly's third stage (§5). It stores canonicalized binary and
// higher-arity facts with confidence scores and provenance, maintains the
// entity records (including emerging entities identified by their mention
// clusters), and supports the subject/predicate/object and Type: searches
// of the demo interface (§6, Figures 3 and 4).
package store

import (
	"iter"
	"slices"
	"sort"
	"strings"

	"qkbfly/internal/intern"
	"qkbfly/internal/kb/entityrepo"
)

// Value is one argument of a fact: either a canonical entity reference or
// a string/time literal (arguments that could not be linked remain
// literals, as in the paper's h"Brad Pitt", "be", "actor"i example).
type Value struct {
	EntityID string // canonical or emerging entity ID; "" for literals
	Literal  string // surface literal when EntityID == ""
	IsTime   bool   // true when the literal is a normalized time value
}

// IsEntity reports whether the value references an entity.
func (v Value) IsEntity() bool { return v.EntityID != "" }

// String implements fmt.Stringer: the entity ID, or the quoted literal.
func (v Value) String() string { return string(appendValueText(nil, v)) }

// Provenance records where a fact was extracted from.
type Provenance struct {
	DocID     string
	SentIndex int
}

// Fact is one canonicalized (possibly higher-arity) fact.
type Fact struct {
	ID         int
	Subject    Value
	Relation   string // canonical relation (synset ID) or surface pattern
	Pattern    string // the original surface pattern
	Objects    []Value
	Confidence float64
	Source     Provenance
}

// Arity returns the total number of arguments including the subject.
func (f *Fact) Arity() int { return 1 + len(f.Objects) }

// String renders the fact in the paper's angle-bracket notation.
func (f *Fact) String() string { return string(appendFactText(nil, f)) }

// EntityRecord describes an entity of the on-the-fly KB: either linked to
// the background repository or emerging (identified by a mention cluster).
type EntityRecord struct {
	ID       string
	Name     string
	Mentions []string // distinct surface forms, in first-seen order
	Types    []string // fine-grained types (closed under subsumption)
	Emerging bool     // true if absent from the entity repository
}

// KB is the on-the-fly knowledge base.
type KB struct {
	facts     []Fact
	entities  map[string]*EntityRecord
	order     []string
	bySubject map[string][]int
	byObject  map[string][]int
	byRel     map[string][]int
	// byKey indexes facts by their full dedup key, so AddFact is one map
	// probe instead of re-deriving keys for every same-subject fact.
	byKey  map[string]int
	keyBuf []byte // scratch for building keys without intermediate garbage
	nextID int
}

// New returns an empty on-the-fly KB.
func New() *KB {
	return &KB{
		entities:  make(map[string]*EntityRecord),
		bySubject: make(map[string][]int),
		byObject:  make(map[string][]int),
		byRel:     make(map[string][]int),
		byKey:     make(map[string]int),
	}
}

// AddEntity registers (or extends) an entity record. Mentions are merged.
// The record's slices are copied, so a record lifted from another KB (as
// Merge does with engine shards) never aliases the source's storage.
func (kb *KB) AddEntity(rec EntityRecord) *EntityRecord {
	e, ok := kb.entities[rec.ID]
	if !ok {
		cp := newEntity(&rec)
		kb.entities[rec.ID] = &cp
		kb.order = append(kb.order, rec.ID)
		return &cp
	}
	mergeEntity(e, &rec)
	return e
}

// newEntity is the record AddEntity stores for an ID the KB lacks: the
// mentions copied, the types closed under subsumption.
func newEntity(rec *EntityRecord) EntityRecord {
	cp := *rec
	cp.Mentions = append([]string(nil), rec.Mentions...)
	cp.Types = entityrepo.TypeClosure(rec.Types)
	return cp
}

// mergeEntity extends e the way AddEntity extends a held record: rec's
// mentions and the closure of its types are appended where e lacks them.
func mergeEntity(e, rec *EntityRecord) {
	for _, m := range rec.Mentions {
		if !contains(e.Mentions, m) {
			e.Mentions = append(e.Mentions, m)
		}
	}
	// VisitClosure walks the closure without materializing it; duplicate
	// visits are harmless because the contains check is idempotent.
	entityrepo.VisitClosure(rec.Types, func(t string) {
		if !contains(e.Types, t) {
			e.Types = append(e.Types, t)
		}
	})
}

// Entity returns the record for an entity ID, or nil.
func (kb *KB) Entity(id string) *EntityRecord { return kb.entities[id] }

// Entities returns all entity records in insertion order.
func (kb *KB) Entities() []*EntityRecord {
	out := make([]*EntityRecord, 0, len(kb.order))
	for _, id := range kb.order {
		out = append(out, kb.entities[id])
	}
	return out
}

// EntityCount returns the number of entity records: len(Entities())
// without building the slice.
func (kb *KB) EntityCount() int { return len(kb.order) }

// EmergingCount returns the number of emerging entities.
func (kb *KB) EmergingCount() int {
	n := 0
	for _, e := range kb.entities {
		if e.Emerging {
			n++
		}
	}
	return n
}

// AddFact appends a fact, deduplicating exact repeats (same subject,
// relation and objects); on a duplicate the higher confidence wins, and a
// confidence tie is broken toward the lexicographically smaller provenance
// so the surviving fact does not depend on insertion order (shards merged
// in any partitioning converge on the same record). It returns the fact ID,
// which is always the fact's index in Facts().
//
// The dedup key is assembled once into a reused scratch buffer and probed
// against the byKey index; only a genuinely new fact materializes the key
// string, and the per-field index keys are substrings of that single
// allocation.
func (kb *KB) AddFact(f Fact) int {
	// Key layout: <subject>|<lower(relation)>|<object>|<object>...
	buf := appendValueKey(kb.keyBuf[:0], f.Subject)
	subjLen := len(buf)
	buf = append(buf, '|')
	buf = intern.AppendLower(buf, f.Relation)
	relEnd := len(buf)
	objEnds := make([]int, 0, 8)
	for _, o := range f.Objects {
		buf = append(buf, '|')
		buf = appendValueKey(buf, o)
		objEnds = append(objEnds, len(buf))
	}
	kb.keyBuf = buf

	if i, ok := kb.byKey[string(buf)]; ok { // no alloc: map probe with temporary
		keepWinner(&kb.facts[i], &f)
		return kb.facts[i].ID
	}
	f.ID = kb.nextID
	kb.nextID++
	idx := len(kb.facts)
	kb.facts = append(kb.facts, f)
	key := string(buf) // the one allocation; index keys slice into it
	kb.byKey[key] = idx
	kb.bySubject[key[:subjLen]] = append(kb.bySubject[key[:subjLen]], idx)
	kb.byRel[key[subjLen+1:relEnd]] = append(kb.byRel[key[subjLen+1:relEnd]], idx)
	prev := relEnd
	for _, end := range objEnds {
		okey := key[prev+1 : end]
		kb.byObject[okey] = append(kb.byObject[okey], idx)
		prev = end
	}
	return f.ID
}

// FactKey returns a fact's dedup key — the content identity Delta facts
// are correlated by across versions. Consumers that mirror a session
// from delta streams (internal/analytics, replication) key their state
// by it.
func FactKey(f *Fact) string { return string(appendFactKey(nil, f)) }

// appendFactKey appends a fact's full dedup key to buf — the same
// <subject>|<lower(relation)>|<object>... layout AddFact assembles (and
// must stay in sync with it); AddFact builds the key inline because it
// also needs the per-field boundaries for the secondary indices.
func appendFactKey(buf []byte, f *Fact) []byte {
	buf = appendValueKey(buf, f.Subject)
	buf = append(buf, '|')
	buf = intern.AppendLower(buf, f.Relation)
	for _, o := range f.Objects {
		buf = append(buf, '|')
		buf = appendValueKey(buf, o)
	}
	return buf
}

// appendValueKey appends the canonical index key of a value ("e:<id>" or
// "l:<lowered literal>") to buf.
func appendValueKey(buf []byte, v Value) []byte {
	if v.IsEntity() {
		buf = append(buf, 'e', ':')
		return append(buf, v.EntityID...)
	}
	buf = append(buf, 'l', ':')
	return intern.AppendLower(buf, v.Literal)
}

// wins reports whether f displaces cur, a record under the same dedup
// key: the higher confidence wins, and a tie goes to the smaller
// provenance, so the survivor does not depend on insertion order.
func wins(f, cur *Fact) bool {
	return f.Confidence > cur.Confidence ||
		(f.Confidence == cur.Confidence && provLess(f.Source, cur.Source))
}

// keepWinner folds f, another occurrence of dst's dedup key, into dst:
// if f wins, dst takes its confidence and provenance, and keepWinner
// reports true. The surface pattern travels with its provenance: the
// stored fact must cite a sentence that contains it.
func keepWinner(dst, f *Fact) bool {
	if !wins(f, dst) {
		return false
	}
	dst.Confidence, dst.Source, dst.Pattern = f.Confidence, f.Source, f.Pattern
	return true
}

// provLess orders provenances by (DocID, SentIndex).
func provLess(a, b Provenance) bool {
	if a.DocID != b.DocID {
		return a.DocID < b.DocID
	}
	return a.SentIndex < b.SentIndex
}

// Facts returns all facts.
func (kb *KB) Facts() []Fact { return kb.facts }

// Len returns the number of facts.
func (kb *KB) Len() int { return len(kb.facts) }

// Query describes a search over the KB, matching the demo UI (§6):
// each field is a substring filter; a "Type:X" subject or object filter
// matches entities having type X. Empty fields match everything.
type Query struct {
	Subject   string
	Predicate string
	Object    string
	MinConf   float64
}

// Search returns the facts matching the query, ordered by fact ID.
func (kb *KB) Search(q Query) []Fact {
	var out []Fact
	for f := range kb.Matches(q) {
		out = append(out, *f)
	}
	return out
}

// Matches yields the facts matching the query, ordered by fact ID,
// without copying them: the facts are the KB's own and read-only.
func (kb *KB) Matches(q Query) iter.Seq[*Fact] {
	return func(yield func(*Fact) bool) {
		for i := range kb.facts {
			f := &kb.facts[i]
			if f.Confidence < q.MinConf {
				continue
			}
			if !kb.matchValue(f.Subject, q.Subject) {
				continue
			}
			if q.Predicate != "" && !strings.Contains(strings.ToLower(f.Relation), strings.ToLower(q.Predicate)) {
				continue
			}
			if q.Object != "" && !slices.ContainsFunc(f.Objects, func(o Value) bool { return kb.matchValue(o, q.Object) }) {
				continue
			}
			if !yield(f) {
				return
			}
		}
	}
}

// matchValue implements substring and Type: matching on one argument.
func (kb *KB) matchValue(v Value, filter string) bool {
	if filter == "" {
		return true
	}
	if t, ok := strings.CutPrefix(filter, "Type:"); ok {
		if !v.IsEntity() {
			return false
		}
		e := kb.entities[v.EntityID]
		if e == nil {
			return false
		}
		for _, et := range e.Types {
			if strings.EqualFold(et, t) {
				return true
			}
		}
		return false
	}
	lower := strings.ToLower(filter)
	if v.IsEntity() {
		if strings.Contains(strings.ToLower(v.EntityID), strings.ReplaceAll(lower, " ", "_")) {
			return true
		}
		if e := kb.entities[v.EntityID]; e != nil {
			if strings.Contains(strings.ToLower(e.Name), lower) {
				return true
			}
			for _, m := range e.Mentions {
				if strings.Contains(strings.ToLower(m), lower) {
					return true
				}
			}
		}
		return false
	}
	return strings.Contains(strings.ToLower(v.Literal), lower)
}

// FactsAbout returns all facts whose subject or any object is the entity.
func (kb *KB) FactsAbout(entityID string) []Fact {
	seen := map[int]bool{}
	var idxs []int
	for _, i := range kb.bySubject["e:"+entityID] {
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	for _, i := range kb.byObject["e:"+entityID] {
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	out := make([]Fact, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, kb.facts[i])
	}
	return out
}

// Relations returns the distinct relation names, sorted.
func (kb *KB) Relations() []string {
	var out []string
	for r := range kb.byRel {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Merge adds every fact and entity of other into kb. Facts are
// re-numbered compactly in merge order and deduplicated against the
// receiver (AddFact's deterministic tie-break makes the surviving
// confidence and provenance independent of which shard arrived first);
// object slices are copied so the shard can be discarded or mutated
// afterwards without aliasing the merged KB.
func (kb *KB) Merge(other *KB) {
	// Pre-size for the incoming shard: the common case (serving-layer
	// shard re-merge, engine doc-order merge) appends mostly-new facts and
	// entities, so grow once instead of element-by-element.
	if n := len(other.order); n > 0 {
		kb.order = slices.Grow(kb.order, n)
	}
	if n := len(other.facts); n > 0 {
		kb.facts = slices.Grow(kb.facts, n)
	}
	for _, id := range other.order {
		kb.AddEntity(*other.entities[id])
	}
	for _, f := range other.Facts() {
		f.Objects = append(make([]Value, 0, len(f.Objects)), f.Objects...)
		kb.AddFact(f)
	}
}

// Clone returns an independent deep copy of the KB: facts (with their
// object slices), entity records, insertion order, dedup and field
// indices, and the fact-ID counter. Continuing to Merge into the clone
// produces exactly the KB that continuing on the original would have.
// (Session versioning no longer clones — versions are persistent merge
// trees of immutable segments sharing structure; Clone remains for
// callers that need a mutable private copy of a shared KB.)
func (kb *KB) Clone() *KB {
	cp := &KB{
		facts:     make([]Fact, len(kb.facts)),
		entities:  make(map[string]*EntityRecord, len(kb.entities)),
		order:     append([]string(nil), kb.order...),
		bySubject: cloneIndex(kb.bySubject),
		byObject:  cloneIndex(kb.byObject),
		byRel:     cloneIndex(kb.byRel),
		byKey:     make(map[string]int, len(kb.byKey)),
		nextID:    kb.nextID,
	}
	for i := range kb.facts {
		f := kb.facts[i]
		f.Objects = append([]Value(nil), f.Objects...)
		cp.facts[i] = f
	}
	for id, e := range kb.entities {
		ec := *e
		ec.Mentions = append([]string(nil), e.Mentions...)
		ec.Types = append([]string(nil), e.Types...)
		cp.entities[id] = &ec
	}
	for k, v := range kb.byKey {
		cp.byKey[k] = v
	}
	return cp
}

// cloneIndex copies a field index including its posting slices.
func cloneIndex(idx map[string][]int) map[string][]int {
	out := make(map[string][]int, len(idx))
	for k, v := range idx {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// Fingerprint renders the KB's semantic content — facts with confidences
// and provenance, entity records with mentions and types — as a sorted,
// insertion-order-independent string. Two KBs built from the same
// documents fingerprint identically regardless of how the work was
// partitioned; tests and benchmarks use it to prove the parallel engine
// matches the serial path. Its lines are the ones Identity hashes (see
// identity.go, which formats both).
func (kb *KB) Fingerprint() string {
	lines := make([]string, 0, len(kb.facts)+len(kb.order))
	var buf []byte
	var sorted []string
	for i := range kb.facts {
		buf = appendFactLine(buf[:0], &kb.facts[i])
		lines = append(lines, string(buf))
	}
	for _, id := range kb.order {
		buf = appendEntityLine(buf[:0], &sorted, kb.entities[id])
		lines = append(lines, string(buf))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
