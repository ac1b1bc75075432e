// Binary codec for sealed segments — the serialization the persistence
// layer (internal/kb/store/persist) writes as content-addressed blobs.
//
// Layout of an encoded segment:
//
//	magic "qseg" | format version (1 byte) | header length (uint32 LE)
//	header checksum (fnv64a, 8 bytes LE) | body checksum (8 bytes LE)
//	header | body
//
// The header carries the segment's metadata (leaf label, document
// count, build time, fact/entity counts, body length) and is covered by
// its own checksum, so a restart can construct a demoted Segment from a
// small prefix read without touching the payload. The body is verified
// on fault-in.
//
// Keys are stored in sorted order with shared-prefix elision (adjacent
// sorted dedup keys share long subject prefixes), followed by the
// sorted→fact-order permutation. Go's string comparison is bytewise, so
// keys serialize verbatim: the on-disk sorted order IS the in-memory
// sort order — the sort-order-preserving encoding is the identity.
// Strings that recur across segments (relations, entity IDs, types,
// provenance doc IDs) are interned on decode, so reloaded segments share
// string storage with live ones.
//
// The body ends with the POS secondary index as (fact index, object
// ordinal) pairs in POS-key order: the keys themselves rebuild
// deterministically from the decoded facts (appendPOSKey), so no key
// bytes are stored and no re-sort happens on decode.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"qkbfly/internal/intern"
)

// segMagic opens every encoded segment blob.
var segMagic = [4]byte{'q', 's', 'e', 'g'}

// segFormatVersion is the blob format; decoding refuses any other.
const segFormatVersion = 2

// segFixedHeaderLen is the byte length of the fixed prefix before the
// variable header: magic(4) + version(1) + headerLen(4) + headerSum(8) +
// bodySum(8).
const segFixedHeaderLen = 25

// SegmentInfoPrefix is a read size guaranteed to cover the fixed prefix
// plus any realistic variable header, whose dominant field is the leaf
// label (a document ID plus build options; merged segments carry none).
const SegmentInfoPrefix = 4096

// ErrShortBlob reports a blob (or blob prefix) too short to decode.
var ErrShortBlob = errors.New("store: segment blob truncated")

// ErrBlobChecksum reports a checksum mismatch — the blob is corrupt and
// should be quarantined, not trusted.
var ErrBlobChecksum = errors.New("store: segment blob checksum mismatch")

// SegmentInfo is the decoded blob header: everything needed to construct
// a demoted Segment without reading the payload.
type SegmentInfo struct {
	ID        string // leaf label (see Segment.ID)
	Docs      int
	BuildTime time.Duration
	Facts     int
	Ents      int
	BodyLen   int // encoded payload length following the header
}

// EncodeSegment serializes the segment (including its resident payload)
// into a standalone checksummed blob.
func EncodeSegment(s *Segment) []byte {
	d := s.payload()

	// Header.
	h := make([]byte, 0, 64+len(s.id))
	h = appendUvarint(h, uint64(len(s.id)))
	h = append(h, s.id...)
	h = appendUvarint(h, uint64(s.docs))
	h = appendUvarint(h, uint64(s.buildTime))
	h = appendUvarint(h, uint64(len(d.facts)))
	h = appendUvarint(h, uint64(len(d.ents)))

	// Body: sorted keys with prefix elision, permutation, facts, entities.
	body := make([]byte, 0, d.bytes/2+64)
	prev := ""
	for _, fi := range d.sorted {
		k := d.keys[fi]
		shared := sharedPrefix(prev, k)
		body = appendUvarint(body, uint64(shared))
		body = appendUvarint(body, uint64(len(k)-shared))
		body = append(body, k[shared:]...)
		prev = k
	}
	for _, fi := range d.sorted {
		body = appendUvarint(body, uint64(fi))
	}
	for i := range d.facts {
		f := &d.facts[i]
		body = appendUvarint(body, uint64(f.ID))
		body = appendValue(body, f.Subject)
		body = appendString(body, f.Relation)
		body = appendString(body, f.Pattern)
		body = appendUvarint(body, uint64(len(f.Objects)))
		for _, o := range f.Objects {
			body = appendValue(body, o)
		}
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(f.Confidence))
		body = appendString(body, f.Source.DocID)
		body = appendUvarint(body, uint64(f.Source.SentIndex))
	}
	for i := range d.ents {
		e := &d.ents[i]
		body = appendString(body, e.ID)
		body = appendString(body, e.Name)
		body = appendUvarint(body, uint64(len(e.Mentions)))
		for _, m := range e.Mentions {
			body = appendString(body, m)
		}
		body = appendUvarint(body, uint64(len(e.Types)))
		for _, t := range e.Types {
			body = appendString(body, t)
		}
		if e.Emerging {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
	}
	// POS index: (fact index, object ordinal) pairs in POS-key order.
	// Keys rebuild from the facts on decode.
	body = appendUvarint(body, uint64(len(d.posFact)))
	for i := range d.posFact {
		body = appendUvarint(body, uint64(d.posFact[i]))
		body = appendUvarint(body, uint64(d.posOrd[i]))
	}
	h = appendUvarint(h, uint64(len(body)))

	out := make([]byte, 0, segFixedHeaderLen+len(h)+len(body))
	out = append(out, segMagic[:]...)
	out = append(out, segFormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h)))
	out = binary.LittleEndian.AppendUint64(out, fnvSum(h))
	out = binary.LittleEndian.AppendUint64(out, fnvSum(body))
	out = append(out, h...)
	out = append(out, body...)
	return out
}

// DecodeSegmentInfo parses and verifies a blob's header from a prefix of
// the blob (SegmentInfoPrefix bytes always suffice; the whole blob works
// too). The payload is neither read nor verified.
func DecodeSegmentInfo(blob []byte) (SegmentInfo, error) {
	if len(blob) < segFixedHeaderLen {
		return SegmentInfo{}, ErrShortBlob
	}
	if [4]byte(blob[:4]) != segMagic {
		return SegmentInfo{}, errors.New("store: not a segment blob (bad magic)")
	}
	if blob[4] != segFormatVersion {
		return SegmentInfo{}, fmt.Errorf("store: unsupported segment blob format %d", blob[4])
	}
	hlen := int(binary.LittleEndian.Uint32(blob[5:9]))
	wantSum := binary.LittleEndian.Uint64(blob[9:17])
	if segFixedHeaderLen+hlen > len(blob) {
		return SegmentInfo{}, ErrShortBlob
	}
	h := blob[segFixedHeaderLen : segFixedHeaderLen+hlen]
	if fnvSum(h) != wantSum {
		return SegmentInfo{}, fmt.Errorf("%w (header)", ErrBlobChecksum)
	}
	r := reader{buf: h}
	idLen := r.uvarint()
	id := string(r.bytes(int(idLen)))
	info := SegmentInfo{
		ID:        id,
		Docs:      int(r.uvarint()),
		BuildTime: time.Duration(r.uvarint()),
		Facts:     int(r.uvarint()),
		Ents:      int(r.uvarint()),
		BodyLen:   int(r.uvarint()),
	}
	if r.err != nil {
		return SegmentInfo{}, fmt.Errorf("store: segment blob header: %w", r.err)
	}
	return info, nil
}

// DecodeSegment deserializes a complete blob into a resident segment,
// verifying both checksums. A checksum or structure error means the blob
// is corrupt: callers should quarantine it and rebuild, never trust a
// partial decode.
func DecodeSegment(blob []byte) (*Segment, error) {
	info, err := DecodeSegmentInfo(blob)
	if err != nil {
		return nil, err
	}
	hlen := int(binary.LittleEndian.Uint32(blob[5:9]))
	bodyStart := segFixedHeaderLen + hlen
	if info.BodyLen < 0 || bodyStart+info.BodyLen > len(blob) {
		return nil, ErrShortBlob
	}
	body := blob[bodyStart : bodyStart+info.BodyLen]
	if fnvSum(body) != binary.LittleEndian.Uint64(blob[17:25]) {
		return nil, fmt.Errorf("%w (body)", ErrBlobChecksum)
	}

	n, ne := info.Facts, info.Ents
	// Every fact and entity takes at least one body byte.
	if n < 0 || ne < 0 || n > len(body) || ne > len(body) {
		return nil, fmt.Errorf("store: segment blob counts: %w", ErrShortBlob)
	}
	d := &segData{
		facts:  make([]Fact, n),
		keys:   make([]string, n),
		sorted: make([]int32, n),
		ents:   make([]EntityRecord, 0, ne),
	}
	r := reader{buf: body}

	// Sorted keys (prefix-elided), then the permutation mapping sorted
	// position -> fact index; fact-order keys fall out of the two.
	sortedKeys := make([]string, n)
	prev := ""
	for i := 0; i < n; i++ {
		shared := int(r.uvarint())
		suffix := r.bytes(int(r.uvarint()))
		if r.err != nil {
			return nil, fmt.Errorf("store: segment blob keys: %w", r.err)
		}
		if shared > len(prev) {
			return nil, errors.New("store: segment blob keys: bad shared-prefix length")
		}
		k := prev[:shared] + string(suffix)
		sortedKeys[i] = k
		prev = k
	}
	for i := 0; i < n; i++ {
		fi := r.uvarint()
		if r.err != nil || fi >= uint64(n) {
			return nil, errors.New("store: segment blob permutation out of range")
		}
		d.sorted[i] = int32(fi)
		d.keys[fi] = sortedKeys[i]
	}

	for i := 0; i < n; i++ {
		f := &d.facts[i]
		f.ID = int(r.uvarint())
		f.Subject = r.value()
		f.Relation = intern.B(r.bytes(int(r.uvarint())))
		f.Pattern = intern.B(r.bytes(int(r.uvarint())))
		no := int(r.uvarint())
		if r.err != nil || no > len(body) {
			return nil, fmt.Errorf("store: segment blob fact %d: %w", i, errors.Join(r.err, ErrShortBlob))
		}
		if no > 0 {
			f.Objects = make([]Value, no)
			for j := 0; j < no; j++ {
				f.Objects[j] = r.value()
			}
		}
		conf := r.bytes(8)
		f.Source.DocID = intern.B(r.bytes(int(r.uvarint())))
		f.Source.SentIndex = int(r.uvarint())
		if r.err != nil {
			return nil, fmt.Errorf("store: segment blob fact %d: %w", i, r.err)
		}
		f.Confidence = math.Float64frombits(binary.LittleEndian.Uint64(conf))
	}
	for i := 0; i < ne; i++ {
		var e EntityRecord
		e.ID = intern.B(r.bytes(int(r.uvarint())))
		e.Name = intern.B(r.bytes(int(r.uvarint())))
		nm := int(r.uvarint())
		if r.err != nil || nm > len(body) {
			return nil, fmt.Errorf("store: segment blob entity %d: %w", i, errors.Join(r.err, ErrShortBlob))
		}
		if nm > 0 {
			e.Mentions = make([]string, nm)
			for j := range e.Mentions {
				e.Mentions[j] = intern.B(r.bytes(int(r.uvarint())))
			}
		}
		nt := int(r.uvarint())
		if r.err != nil || nt > len(body) {
			return nil, fmt.Errorf("store: segment blob entity %d: %w", i, errors.Join(r.err, ErrShortBlob))
		}
		if nt > 0 {
			e.Types = make([]string, nt)
			for j := range e.Types {
				e.Types[j] = intern.B(r.bytes(int(r.uvarint())))
			}
		}
		em := r.bytes(1)
		if r.err != nil {
			return nil, fmt.Errorf("store: segment blob entity %d: %w", i, r.err)
		}
		e.Emerging = em[0] == 1
		d.ents = append(d.ents, e)
	}
	d.buildEntIndex()
	// POS index: rebuild each entry's key from its fact — the stored
	// (fact, ordinal) pairs are already in POS-key order.
	np := int(r.uvarint())
	if r.err != nil || np > len(body) {
		return nil, fmt.Errorf("store: segment blob POS index: %w", errors.Join(r.err, ErrShortBlob))
	}
	d.posKeys = make([]string, np)
	d.posFact = make([]int32, np)
	d.posOrd = make([]int32, np)
	var buf []byte
	for i := 0; i < np; i++ {
		fi, ord := r.uvarint(), r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("store: segment blob POS index: %w", r.err)
		}
		if fi >= uint64(n) || ord > uint64(len(d.facts[fi].Objects)) {
			return nil, errors.New("store: segment blob POS index out of range")
		}
		buf = appendPOSKey(buf[:0], &d.facts[fi], d.keys[fi], int32(ord))
		d.posKeys[i] = string(buf)
		d.posFact[i] = int32(fi)
		d.posOrd[i] = int32(ord)
	}
	if len(r.buf) != r.pos {
		return nil, errors.New("store: segment blob has trailing bytes")
	}
	return (&Segment{id: info.ID, docs: info.Docs, buildTime: info.BuildTime}).seal(d), nil
}

// fnvSum hashes a byte slice with FNV-1a 64.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendValue encodes one fact argument: a tag byte (0 literal, 1 entity,
// 2 time literal) followed by the single string the variant carries.
func appendValue(buf []byte, v Value) []byte {
	switch {
	case v.IsEntity():
		buf = append(buf, 1)
		return appendString(buf, v.EntityID)
	case v.IsTime:
		buf = append(buf, 2)
		return appendString(buf, v.Literal)
	default:
		buf = append(buf, 0)
		return appendString(buf, v.Literal)
	}
}

// reader is a bounds-checked sequential decoder; the first failure
// latches err and every subsequent read returns zero values.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = ErrShortBlob
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = ErrShortBlob
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) value() Value {
	tag := r.bytes(1)
	s := r.bytes(int(r.uvarint()))
	if r.err != nil {
		return Value{}
	}
	switch tag[0] {
	case 1:
		return Value{EntityID: intern.B(s)}
	case 2:
		return Value{Literal: string(s), IsTime: true}
	default:
		return Value{Literal: string(s)}
	}
}
