// Content identity of a KB version: an additive multiset hash over the
// lines of its Fingerprint(). Identity(KB) = Σ SHA-256(line) mod 2²⁵⁶,
// one line per fact and per entity record. Because the sum is
// commutative and invertible, a version's identity follows from its
// predecessor's in O(|delta|) — subtract the hashes of the records a
// change replaced, add those of the records it introduced — so the
// session can stamp every version, and a follower can verify every
// applied delta, without materializing or fingerprinting the KB.
//
// The identity is a fault check, not an authenticator: anyone able to
// rewrite a record in transit or on disk can rewrite its stamp too.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Identity is the multiset hash of a KB's fingerprint lines: a 256-bit
// integer held as four little-endian 64-bit limbs. The zero value is the
// identity of the empty KB.
type Identity [4]uint64

// Add returns a + b mod 2²⁵⁶.
func (a Identity) Add(b Identity) Identity {
	var out Identity
	var carry uint64
	for i := range a {
		out[i], carry = bits.Add64(a[i], b[i], carry)
	}
	return out
}

// Sub returns a − b mod 2²⁵⁶.
func (a Identity) Sub(b Identity) Identity {
	var out Identity
	var borrow uint64
	for i := range a {
		out[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
	return out
}

// Hex renders the identity as 64 big-endian hex digits — the form the
// replication stamp, the durable seal and /stats carry. The string is
// its only allocation.
func (a Identity) Hex() string {
	var b [32]byte
	for i := range a {
		binary.BigEndian.PutUint64(b[24-8*i:], a[i])
	}
	var h [64]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// ParseIdentity is the inverse of Identity.Hex.
func ParseIdentity(s string) (Identity, error) {
	var b [32]byte
	if len(s) != 2*len(b) {
		return Identity{}, fmt.Errorf("store: identity %q: want %d hex digits", s, 2*len(b))
	}
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return Identity{}, fmt.Errorf("store: identity %q: %w", s, err)
	}
	var a Identity
	for i := range a {
		a[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return a, nil
}

// hashLine is one fingerprint line's term of the sum: its SHA-256 read
// as a big-endian 256-bit integer.
func hashLine(line []byte) Identity {
	sum := sha256.Sum256(line)
	var a Identity
	for i := range a {
		a[i] = binary.BigEndian.Uint64(sum[24-8*i:])
	}
	return a
}

// TextIdentity returns the identity of a KB from its Fingerprint() text:
// the sum over its newline-separated lines. The empty text (the empty
// KB) has the zero identity.
func TextIdentity(fingerprint string) Identity {
	var id Identity
	if fingerprint == "" {
		return id
	}
	for line := range strings.SplitSeq(fingerprint, "\n") {
		id = id.Add(hashLine([]byte(line)))
	}
	return id
}

// appendFactLine appends a fact's fingerprint line:
//
//	f <subject, relation, object...> conf=<g> src=<doc>:<sentence>
//
// Fingerprint and every identity computation format lines here, so the
// text and the hash cannot drift apart.
func appendFactLine(buf []byte, f *Fact) []byte {
	buf = append(buf, "f "...)
	buf = appendFactText(buf, f)
	buf = append(buf, " conf="...)
	buf = strconv.AppendFloat(buf, f.Confidence, 'g', -1, 64)
	buf = append(buf, " src="...)
	buf = append(buf, f.Source.DocID...)
	buf = append(buf, ':')
	return strconv.AppendInt(buf, int64(f.Source.SentIndex), 10)
}

// appendFactText appends Fact.String(): <subject, relation, object...>.
func appendFactText(buf []byte, f *Fact) []byte {
	buf = append(buf, '<')
	buf = appendValueText(buf, f.Subject)
	buf = append(buf, ", "...)
	buf = append(buf, f.Relation...)
	for _, o := range f.Objects {
		buf = append(buf, ", "...)
		buf = appendValueText(buf, o)
	}
	return append(buf, '>')
}

// appendValueText appends Value.String(): the entity ID, or the quoted
// literal.
func appendValueText(buf []byte, v Value) []byte {
	if v.IsEntity() {
		return append(buf, v.EntityID...)
	}
	return strconv.AppendQuote(buf, v.Literal)
}

// appendEntityLine appends an entity record's fingerprint line, with
// mentions and types sorted so the line does not depend on the order
// evidence arrived in:
//
//	e <id> name=<quoted> emerging=<bool> mentions=[a b] types=[x y]
//
// The lists are sorted in *scratch, a buffer the caller reuses across
// lines, so the record itself is never touched.
func appendEntityLine(buf []byte, scratch *[]string, e *EntityRecord) []byte {
	buf = append(buf, "e "...)
	buf = append(buf, e.ID...)
	buf = append(buf, " name="...)
	buf = strconv.AppendQuote(buf, e.Name)
	buf = append(buf, " emerging="...)
	buf = strconv.AppendBool(buf, e.Emerging)
	buf = append(buf, " mentions="...)
	buf = appendSortedList(buf, scratch, e.Mentions)
	buf = append(buf, " types="...)
	return appendSortedList(buf, scratch, e.Types)
}

// appendSortedList appends xs in sorted order as "[a b c]", sorting a
// copy held in *scratch.
func appendSortedList(buf []byte, scratch *[]string, xs []string) []byte {
	sorted := append((*scratch)[:0], xs...)
	slices.Sort(sorted)
	*scratch = sorted
	buf = append(buf, '[')
	for i, x := range sorted {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, x...)
	}
	return append(buf, ']')
}

// lineHasher hashes fingerprint lines through one reused line buffer and
// one reused list-sorting buffer.
type lineHasher struct {
	buf    []byte
	sorted []string
}

func (h *lineHasher) fact(f *Fact) Identity {
	h.buf = appendFactLine(h.buf[:0], f)
	return hashLine(h.buf)
}

func (h *lineHasher) entity(e *EntityRecord) Identity {
	h.buf = appendEntityLine(h.buf[:0], &h.sorted, e)
	return hashLine(h.buf)
}

// Identity returns the KB's content identity, computed from scratch: one
// hash per fact and per entity record, with no sort and no join.
// TextIdentity(kb.Fingerprint()) is the same value.
func (kb *KB) Identity() Identity {
	var h lineHasher
	var id Identity
	for i := range kb.facts {
		id = id.Add(h.fact(&kb.facts[i]))
	}
	for _, eid := range kb.order {
		id = id.Add(h.entity(kb.entities[eid]))
	}
	return id
}

// Identity returns the content identity of the KB the tree materializes
// to, with its fact and entity counts, without materializing it: facts
// stream from a whole-tree ScanPrefix (each key's winning record, spelled
// as the materialized KB spells it) and entity records merge across runs
// the way MergeSegments merges them.
func (t *Tree) Identity() (id Identity, facts, entities int) {
	var h lineHasher
	c := t.ScanPrefix("")
	for _, f, ok := c.Next(); ok; _, f, ok = c.Next() {
		id = id.Add(h.fact(&f))
		facts++
	}
	var merged []EntityRecord
	idx := make(map[string]int)
	for _, r := range t.runs {
		ents := r.seg.payload().ents
		for i := range ents {
			e := &ents[i]
			if j, ok := idx[e.ID]; ok {
				unionEntity(&merged[j], e)
				continue
			}
			idx[e.ID] = len(merged)
			merged = append(merged, copyEntity(e))
		}
	}
	for i := range merged {
		id = id.Add(h.entity(&merged[i]))
	}
	return id, facts, len(merged)
}

// segIdentity is a segment's own content identity with its counts.
type segIdentity struct {
	id              Identity
	facts, entities int
}

// identity returns the identity of the KB the segment alone
// materializes to — one hash per fact and entity record — computed on
// first use and memoized, so a segment is hashed once however many
// compaction checks it takes part in.
func (s *Segment) identity() segIdentity {
	if m := s.ident.Load(); m != nil {
		return *m
	}
	d := s.payload()
	var h lineHasher
	m := segIdentity{facts: len(d.facts), entities: len(d.ents)}
	for i := range d.facts {
		m.id = m.id.Add(h.fact(&d.facts[i]))
	}
	for i := range d.ents {
		m.id = m.id.Add(h.entity(&d.ents[i]))
	}
	s.ident.Store(&m)
	return m
}

// spanIdentity returns what Tree.Identity returns for a tree of exactly
// these runs, from the runs' memoized own identities: a fact key or
// entity ID one run holds contributes that run's record as is, so only
// those several runs hold are hashed again — each holder's record
// subtracted, the folded record added. Finding them is a k-way walk of
// the runs' sorted key and entity indices, with no hashing.
func spanIdentity(runs []*treeNode) segIdentity {
	var out segIdentity
	for _, r := range runs {
		m := r.seg.identity()
		out.id = out.id.Add(m.id)
		out.facts += m.facts
		out.entities += m.entities
	}
	if len(runs) < 2 {
		return out
	}
	var h lineHasher
	c := (&Tree{runs: runs}).ScanPrefix("")
	for min := c.head(); min >= 0; min = c.head() {
		key, holders := c.keys[min], 0
		for i := min; i < len(runs); i++ {
			if c.valid[i] && c.keys[i] == key {
				holders++
			}
		}
		if holders == 1 {
			c.advance(min)
			continue
		}
		for i := min; i < len(runs); i++ {
			if c.valid[i] && c.keys[i] == key {
				out.id = out.id.Sub(h.fact(c.facts[i]))
			}
		}
		_, f, _ := c.Next()
		out.id = out.id.Add(h.fact(&f))
		out.facts -= holders - 1
	}

	ds := make([]*segData, len(runs))
	pos := make([]int, len(runs)) // next entSorted position per run
	for i, r := range runs {
		ds[i] = r.seg.payload()
	}
	at := func(i int) *EntityRecord { return &ds[i].ents[ds[i].entSorted[pos[i]]] }
	for {
		min := -1
		for i := range ds {
			if pos[i] < len(ds[i].entSorted) && (min < 0 || at(i).ID < at(min).ID) {
				min = i
			}
		}
		if min < 0 {
			return out
		}
		eid, holders := at(min).ID, 0
		var first *EntityRecord
		var merged EntityRecord
		for i := min; i < len(ds); i++ {
			if pos[i] == len(ds[i].entSorted) || at(i).ID != eid {
				continue
			}
			e := at(i)
			pos[i]++
			switch holders++; holders {
			case 1:
				first = e
				continue
			case 2:
				merged = copyEntity(first)
				out.id = out.id.Sub(h.entity(first))
			}
			out.id = out.id.Sub(h.entity(e))
			unionEntity(&merged, e)
		}
		if holders > 1 {
			out.id = out.id.Add(h.entity(&merged))
			out.entities -= holders - 1
		}
	}
}
