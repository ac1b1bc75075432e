// Manifest encoding: the mutable half of the durable store. The manifest
// is a single append-only log of checksummed, length-framed records; all
// mutable state (which documents are live, at which arrival sequences,
// backed by which blobs) lives here, while the fact payloads live in
// immutable content-addressed blobs. Recovery is a forward scan that
// stops at the first torn frame or unverifiable blob reference — the
// surviving prefix IS the last complete version.
//
// Frame layout:
//
//	payload length (uint32 LE) | payload checksum (fnv64a, uint64 LE) | payload
//
// Record payloads (first byte is the kind):
//
//	'V' version delta — version, nextSeq, added docs (key, seq, blob
//	    hash), removed arrival sequences. One per published session
//	    version.
//	'C' checkpoint — version, nextSeq, the full live document list.
//	    Appended every CheckpointEvery version records so recovery replays
//	    a bounded suffix.
//	'I' seal — a checkpoint plus the sealed version's content identity
//	    (store.Identity, hex). Written by a graceful shutdown; its
//	    presence at the manifest tail is what makes the next boot a
//	    *verified* warm restart.
//	'S' legacy seal — a checkpoint plus the SHA-256 of the sealed
//	    version's fingerprint text, as stores sealed before the identity
//	    scheme wrote it. Nothing writes it any more; recovery reads it as
//	    a checkpoint, since its digest cannot be checked against an
//	    identity, so such a store boots as after an unclean shutdown.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
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
	kind    byte     // 'V', 'C', 'I' or 'S'
	version uint64   // session version after this record
	nextSeq uint64   // session arrival-sequence watermark after this record
	adds    []docRef // 'V': documents added by this version
	dels    []uint64 // 'V': arrival sequences removed by this version
	docs    []docRef // 'C'/'I'/'S': full live document list
	seal    string   // 'I': hex identity; 'S': hex SHA-256 of the fingerprint text
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

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// encodeRecord frames a record for appending to the manifest.
func encodeRecord(r *record) []byte {
	p := make([]byte, 0, 64)
	p = append(p, r.kind)
	p = appendUvarint(p, r.version)
	p = appendUvarint(p, r.nextSeq)
	switch r.kind {
	case 'V':
		p = appendUvarint(p, uint64(len(r.adds)))
		for _, a := range r.adds {
			p = appendString(p, a.Key)
			p = appendUvarint(p, a.Seq)
			p = appendString(p, a.Hash)
		}
		p = appendUvarint(p, uint64(len(r.dels)))
		for _, d := range r.dels {
			p = appendUvarint(p, d)
		}
	case 'C', 'I', 'S':
		p = appendUvarint(p, uint64(len(r.docs)))
		for _, d := range r.docs {
			p = appendString(p, d.Key)
			p = appendUvarint(p, d.Seq)
			p = appendString(p, d.Hash)
		}
		if r.kind != 'C' {
			p = appendString(p, r.seal)
		}
	}
	out := make([]byte, 0, frameHeaderLen+len(p))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	out = binary.LittleEndian.AppendUint64(out, fnvSum(p))
	return append(out, p...)
}

// recReader decodes a record payload sequentially; the first failure
// latches err.
type recReader struct {
	buf []byte
	pos int
	err error
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = errTorn
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) string() string {
	n := int(r.uvarint())
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		r.err = errTorn
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *recReader) docRefs(n int) []docRef {
	if r.err != nil || n > len(r.buf) {
		r.err = errTorn
		return nil
	}
	out := make([]docRef, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, docRef{Key: r.string(), Seq: r.uvarint(), Hash: r.string()})
	}
	return out
}

// decodeRecord parses one checksum-verified payload.
func decodeRecord(p []byte) (*record, error) {
	if len(p) == 0 {
		return nil, errTorn
	}
	rec := &record{kind: p[0]}
	r := &recReader{buf: p, pos: 1}
	rec.version = r.uvarint()
	rec.nextSeq = r.uvarint()
	switch rec.kind {
	case 'V':
		rec.adds = r.docRefs(int(r.uvarint()))
		nd := int(r.uvarint())
		if r.err != nil || nd > len(p) {
			return nil, errTorn
		}
		for i := 0; i < nd; i++ {
			rec.dels = append(rec.dels, r.uvarint())
		}
	case 'C', 'I', 'S':
		rec.docs = r.docRefs(int(r.uvarint()))
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

// scanManifest reads records from the start of r, returning the decoded
// records and, per record, the byte offset just past its frame (so the
// caller can truncate the file to the end of any accepted prefix). A torn
// tail (short frame, checksum mismatch, undecodable payload) ends the
// scan without error.
func scanManifest(r io.Reader) (recs []*record, ends []int64, torn bool, err error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, false, err
	}
	off := 0
	for off < len(buf) {
		if off+frameHeaderLen > len(buf) {
			return recs, ends, true, nil
		}
		plen := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint64(buf[off+4 : off+12])
		if off+frameHeaderLen+plen > len(buf) {
			return recs, ends, true, nil
		}
		p := buf[off+frameHeaderLen : off+frameHeaderLen+plen]
		if fnvSum(p) != sum {
			return recs, ends, true, nil
		}
		rec, derr := decodeRecord(p)
		if derr != nil {
			return recs, ends, true, nil
		}
		recs = append(recs, rec)
		off += frameHeaderLen + plen
		ends = append(ends, int64(off))
	}
	return recs, ends, false, nil
}
