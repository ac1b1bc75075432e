// Manifest encoding: manifest.log is the only file the store writes. It
// is a single log of checksummed, length-framed records holding both the
// segment blobs and the mutable state (which documents are live, at
// which arrival sequences, backed by which blobs). Recovery is a forward
// scan that stops at the first torn frame or unverifiable blob reference
// — the surviving prefix IS the last complete version.
//
// Frame layout:
//
//	payload length (uint32 LE) | payload checksum (fnv64a, uint64 LE) | payload
//
// Record payloads (first byte is the kind):
//
//	'B' blob — the blob's hex SHA-256, then its store.EncodeSegment
//	    bytes. A version's new blobs are appended ahead of its 'V' record
//	    in the same write, so a 'V' is complete only if they are.
//	'V' version delta — version, nextSeq, added docs (key, seq, blob
//	    hash), removed arrival sequences. One per published session
//	    version.
//	'C' checkpoint — version, nextSeq, the full live document list. Every
//	    CheckpointEvery version records the log is rewritten to one 'B'
//	    per blob still needed followed by one 'C', so recovery replays at
//	    most one checkpoint interval and the log holds the live window
//	    plus that interval.
//	'I' seal — a checkpoint plus the sealed version's content identity
//	    (store.Identity, hex). A graceful shutdown rewrites the log ending
//	    in one; its presence at the tail is what makes the next boot a
//	    *verified* warm restart.
//	'S' legacy seal — a checkpoint plus the SHA-256 of the sealed
//	    version's fingerprint text, as stores sealed before the identity
//	    scheme wrote it. Nothing writes it any more; recovery reads it as
//	    a checkpoint, since its digest cannot be checked against an
//	    identity, so such a store boots as after an unclean shutdown.
//
// Stores written before blobs were inlined kept each blob in its own
// file, blobs/<sha256>, with no 'B' records; recovery reads such a hash
// from there (see Store.recover).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// docRef names one live document: its session key, tree arrival
// sequence, and the content hash of its leaf blob.
type docRef struct {
	Key  string
	Seq  uint64
	Hash string // hex SHA-256 of the encoded blob
}

// record is one decoded manifest record.
type record struct {
	kind    byte     // 'B', 'V', 'C', 'I' or 'S'
	version uint64   // session version after this record
	nextSeq uint64   // session arrival-sequence watermark after this record
	adds    []docRef // 'V': documents added by this version
	dels    []uint64 // 'V': arrival sequences removed by this version
	docs    []docRef // 'C'/'I'/'S': full live document list
	seal    string   // 'I': hex identity; 'S': hex SHA-256 of the fingerprint text
	hash    string   // 'B': hex SHA-256 of blob
	blob    []byte   // 'B': encoded segment (aliases the scanned buffer)
}

const frameHeaderLen = 12 // length(4) + checksum(8)

// errTorn marks a truncated or corrupt manifest frame — recovery treats
// everything from that offset on as a torn write.
var errTorn = errors.New("persist: torn manifest record")

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFrame appends one frame whose payload is the concatenation of
// parts.
func appendFrame(dst []byte, parts ...[]byte) []byte {
	h := fnv.New64a()
	n := 0
	for _, p := range parts {
		h.Write(p)
		n += len(p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, h.Sum64())
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// appendBlobFrame appends a 'B' record; the blob bytes are the frame's
// last len(blob) bytes.
func appendBlobFrame(dst []byte, hash string, blob []byte) []byte {
	return appendFrame(dst, appendString([]byte{'B'}, hash), blob)
}

func appendDocRefs(p []byte, refs []docRef) []byte {
	p = appendUvarint(p, uint64(len(refs)))
	for _, d := range refs {
		p = appendString(p, d.Key)
		p = appendUvarint(p, d.Seq)
		p = appendString(p, d.Hash)
	}
	return p
}

// encodeRecord frames a record for appending to the manifest.
func encodeRecord(r *record) []byte {
	if r.kind == 'B' {
		return appendBlobFrame(nil, r.hash, r.blob)
	}
	p := make([]byte, 0, 64)
	p = append(p, r.kind)
	p = appendUvarint(p, r.version)
	p = appendUvarint(p, r.nextSeq)
	switch r.kind {
	case 'V':
		p = appendDocRefs(p, r.adds)
		p = appendUvarint(p, uint64(len(r.dels)))
		for _, d := range r.dels {
			p = appendUvarint(p, d)
		}
	case 'C', 'I', 'S':
		p = appendDocRefs(p, r.docs)
		if r.kind != 'C' {
			p = appendString(p, r.seal)
		}
	}
	return appendFrame(make([]byte, 0, frameHeaderLen+len(p)), p)
}

// recReader decodes a record payload sequentially; the first failure
// latches err.
type recReader struct {
	buf []byte
	pos int
	err error
}

// uvarint reads one minimally encoded uvarint: an overlong encoding
// (a multi-byte one ending in a zero byte) is rejected, so every
// accepted record re-encodes to the bytes it was read from.
func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 || (n > 1 && r.buf[r.pos+n-1] == 0) {
		r.err = errTorn
		return 0
	}
	r.pos += n
	return v
}

// count reads a list length, which cannot exceed the payload's size.
func (r *recReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.err = errTorn
		return 0
	}
	return int(n)
}

func (r *recReader) string() string {
	n := r.count()
	if r.err != nil || r.pos+n > len(r.buf) {
		r.err = errTorn
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *recReader) docRefs() []docRef {
	n := r.count()
	if r.err != nil {
		return nil
	}
	out := make([]docRef, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, docRef{Key: r.string(), Seq: r.uvarint(), Hash: r.string()})
	}
	return out
}

// decodeRecord parses one checksum-verified payload. A 'B' record's blob
// aliases p.
func decodeRecord(p []byte) (*record, error) {
	if len(p) == 0 {
		return nil, errTorn
	}
	rec := &record{kind: p[0]}
	r := &recReader{buf: p, pos: 1}
	if rec.kind == 'B' {
		rec.hash = r.string()
		if r.err != nil {
			return nil, r.err
		}
		rec.blob = p[r.pos:]
		return rec, nil
	}
	rec.version = r.uvarint()
	rec.nextSeq = r.uvarint()
	switch rec.kind {
	case 'V':
		rec.adds = r.docRefs()
		nd := r.count()
		for i := 0; i < nd && r.err == nil; i++ {
			rec.dels = append(rec.dels, r.uvarint())
		}
	case 'C', 'I', 'S':
		rec.docs = r.docRefs()
		if rec.kind != 'C' {
			rec.seal = r.string()
		}
	default:
		return nil, fmt.Errorf("persist: unknown manifest record kind %q", rec.kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(p) {
		return nil, errTorn
	}
	return rec, nil
}

// scanManifest decodes records from the start of buf, returning them
// and, per record, the byte offset just past its frame (so the caller
// can truncate the log to the end of any accepted prefix). A torn tail
// (short frame, checksum mismatch, undecodable payload) ends the scan.
func scanManifest(buf []byte) (recs []*record, ends []int64, torn bool) {
	off := 0
	for off < len(buf) {
		if off+frameHeaderLen > len(buf) {
			return recs, ends, true
		}
		plen := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint64(buf[off+4 : off+12])
		if off+frameHeaderLen+plen > len(buf) {
			return recs, ends, true
		}
		p := buf[off+frameHeaderLen : off+frameHeaderLen+plen]
		h := fnv.New64a()
		h.Write(p)
		if h.Sum64() != sum {
			return recs, ends, true
		}
		rec, err := decodeRecord(p)
		if err != nil {
			return recs, ends, true
		}
		recs = append(recs, rec)
		off += frameHeaderLen + plen
		ends = append(ends, int64(off))
	}
	return recs, ends, false
}
