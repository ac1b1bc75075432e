package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sealRand builds a sealed segment from a deterministic random shard.
func sealRand(rng *rand.Rand, doc string) *Segment {
	return SealSegment(randShard(rng, doc), "blob:"+doc)
}

// sameSegment asserts two segments carry identical metadata and payload
// (facts, keys, sort order, entities) — byte-identical round trips.
func sameSegment(t *testing.T, got, want *Segment, label string) {
	t.Helper()
	if got.ID() != want.ID() || got.Docs() != want.Docs() || got.BuildTime() != want.BuildTime() {
		t.Fatalf("%s: metadata differs: (%q,%d,%v) vs (%q,%d,%v)",
			label, got.ID(), got.Docs(), got.BuildTime(), want.ID(), want.Docs(), want.BuildTime())
	}
	gd, wd := got.payload(), want.payload()
	if len(gd.facts) != len(wd.facts) || len(gd.ents) != len(wd.ents) {
		t.Fatalf("%s: %d facts/%d ents, want %d/%d",
			label, len(gd.facts), len(gd.ents), len(wd.facts), len(wd.ents))
	}
	for i := range gd.facts {
		g, w := &gd.facts[i], &wd.facts[i]
		if g.ID != w.ID || g.String() != w.String() || g.Confidence != w.Confidence ||
			g.Source != w.Source || g.Pattern != w.Pattern {
			t.Fatalf("%s: fact %d differs: %+v vs %+v", label, i, g, w)
		}
		if gd.keys[i] != wd.keys[i] {
			t.Fatalf("%s: key %d differs: %q vs %q", label, i, gd.keys[i], wd.keys[i])
		}
	}
	for i := range gd.sorted {
		if gd.sorted[i] != wd.sorted[i] {
			t.Fatalf("%s: sorted[%d] differs: %d vs %d", label, i, gd.sorted[i], wd.sorted[i])
		}
	}
	for i := range gd.ents {
		g, w := &gd.ents[i], &wd.ents[i]
		if g.ID != w.ID || g.Name != w.Name || g.Emerging != w.Emerging ||
			fmt.Sprint(g.Mentions) != fmt.Sprint(w.Mentions) ||
			fmt.Sprint(g.Types) != fmt.Sprint(w.Types) {
			t.Fatalf("%s: entity %d differs: %+v vs %+v", label, i, g, w)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		seg := sealRand(rng, fmt.Sprintf("doc-%d", i))
		// Round-trip merged segments too — wider keys, bigger payloads.
		if i%3 == 0 {
			seg = MergeSegments(seg, sealRand(rng, fmt.Sprintf("doc-%d-b", i)))
		}
		blob := EncodeSegment(seg)
		dec, err := DecodeSegment(blob)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		sameSegment(t, dec, seg, fmt.Sprintf("seg %d", i))
		samePOSIndex(t, dec, seg, fmt.Sprintf("seg %d", i))
		if dec.MemBytes() <= 0 {
			t.Fatalf("seg %d: decoded segment reports no resident bytes", i)
		}
	}
}

func TestCodecRoundTripEmpty(t *testing.T) {
	seg := SealSegment(New(), "empty")
	dec, err := DecodeSegment(EncodeSegment(seg))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	sameSegment(t, dec, seg, "empty")
}

func TestCodecDeterministic(t *testing.T) {
	seg := sealRand(rand.New(rand.NewSource(11)), "det")
	a, b := EncodeSegment(seg), EncodeSegment(seg)
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeSegment is not deterministic for the same segment")
	}
}

func TestCodecHeaderOnlyDecode(t *testing.T) {
	seg := sealRand(rand.New(rand.NewSource(3)), "hdr")
	blob := EncodeSegment(seg)
	prefix := blob
	if len(prefix) > SegmentInfoPrefix {
		prefix = prefix[:SegmentInfoPrefix]
	}
	info, err := DecodeSegmentInfo(prefix)
	if err != nil {
		t.Fatalf("DecodeSegmentInfo: %v", err)
	}
	if info.ID != seg.ID() || info.Docs != seg.Docs() || info.BuildTime != seg.BuildTime() ||
		info.Facts != seg.Len() || info.Ents != len(seg.Entities()) {
		t.Fatalf("header info %+v does not match segment (%q, %d docs, %d facts, %d ents)",
			info, seg.ID(), seg.Docs(), seg.Len(), len(seg.Entities()))
	}
	if got := len(blob); info.BodyLen >= got {
		t.Fatalf("BodyLen %d not smaller than blob %d", info.BodyLen, got)
	}
}

func TestCodecDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seg := MergeSegments(sealRand(rng, "c1"), sealRand(rng, "c2"))
	blob := EncodeSegment(seg)

	// Flip every byte position (stride to keep runtime sane) and require
	// either a decode error or an identical segment — never silent garbage.
	for pos := 0; pos < len(blob); pos += 7 {
		mut := bytes.Clone(blob)
		mut[pos] ^= 0x40
		dec, err := DecodeSegment(mut)
		if err != nil {
			continue
		}
		// A flip in padding-free format should virtually always be caught;
		// if decode "succeeds" the content must still be intact (impossible
		// for a real flip — so fail loudly with context).
		t.Fatalf("flip at %d: decode succeeded (seg %q, %d facts) — corruption undetected",
			pos, dec.ID(), dec.Len())
	}

	// Truncations at every boundary must error, not panic.
	for _, n := range []int{0, 3, 4, 10, segFixedHeaderLen, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeSegment(blob[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: decode succeeded", n)
		}
	}
	if _, err := DecodeSegmentInfo(blob[:10]); !errors.Is(err, ErrShortBlob) {
		t.Fatalf("short header: got %v, want ErrShortBlob", err)
	}

	// Well-formed blobs the decoder must still refuse. Each mutation
	// re-stamps the body checksum, so only the named check can object.
	victim := sealRand(rand.New(rand.NewSource(12)), "victim")
	if po := victim.payload().posOrd; len(po) == 0 || po[len(po)-1] >= 99 {
		t.Fatal("fixture segment has no corruptible POS entry")
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(blob []byte)
	}{
		// Format 1 predates the POS section and is no longer read.
		{"format version 1", "unsupported segment blob format 1", func(blob []byte) { blob[4] = 1 }},
		// A POS ordinal past its fact's object count must fail decode, not
		// fault later at scan time. The last byte is the last pair's
		// ordinal, a tiny single-byte varint.
		{"POS ordinal past object count", "POS index out of range", func(blob []byte) { blob[len(blob)-1] = 99 }},
	} {
		blob := EncodeSegment(victim)
		tc.mutate(blob)
		hlen := int(binary.LittleEndian.Uint32(blob[5:9]))
		binary.LittleEndian.PutUint64(blob[17:25], fnvSum(blob[segFixedHeaderLen+hlen:]))
		if _, err := DecodeSegment(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// samePOSIndex asserts two payloads carry identical POS indexes.
func samePOSIndex(t *testing.T, got, want *Segment, label string) {
	t.Helper()
	gd, wd := got.payload(), want.payload()
	if len(gd.posKeys) != len(wd.posKeys) {
		t.Fatalf("%s: %d POS entries, want %d", label, len(gd.posKeys), len(wd.posKeys))
	}
	for i := range gd.posKeys {
		if gd.posKeys[i] != wd.posKeys[i] || gd.posFact[i] != wd.posFact[i] || gd.posOrd[i] != wd.posOrd[i] {
			t.Fatalf("%s: POS entry %d = (%q,%d,%d), want (%q,%d,%d)", label, i,
				gd.posKeys[i], gd.posFact[i], gd.posOrd[i], wd.posKeys[i], wd.posFact[i], wd.posOrd[i])
		}
	}
}

// restamp rewrites a blob's header and body checksums to match its
// bytes, when its header length fits, so a mutated blob reaches the
// parser instead of stopping at the checksum.
func restamp(blob []byte) {
	if len(blob) < segFixedHeaderLen {
		return
	}
	hlen := int(binary.LittleEndian.Uint32(blob[5:9]))
	if hlen < 0 || segFixedHeaderLen+hlen > len(blob) {
		return
	}
	binary.LittleEndian.PutUint64(blob[9:17], fnvSum(blob[segFixedHeaderLen:segFixedHeaderLen+hlen]))
	binary.LittleEndian.PutUint64(blob[17:25], fnvSum(blob[segFixedHeaderLen+hlen:]))
}

// FuzzDecodeSegment: the blob decoder never panics on any bytes, even
// with their checksums re-stamped, and a blob it accepts holds a segment
// that re-encodes and decodes to the same content.
func FuzzDecodeSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	blob := EncodeSegment(MergeSegments(sealRand(rng, "c1"), sealRand(rng, "c2")))
	f.Add(blob)
	f.Add(EncodeSegment(SealSegment(New(), "empty")))
	for _, n := range []int{0, 3, 4, 10, segFixedHeaderLen, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	// The corruption table's well-formed blobs the decoder must refuse.
	victim := EncodeSegment(sealRand(rand.New(rand.NewSource(12)), "victim"))
	for _, mutate := range []func([]byte){
		func(b []byte) { b[4] = 1 },         // format version 1
		func(b []byte) { b[len(b)-1] = 99 }, // POS ordinal past the object count
	} {
		b := bytes.Clone(victim)
		mutate(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		blob = bytes.Clone(blob)
		restamp(blob)
		seg, err := DecodeSegment(blob)
		if err != nil {
			return
		}
		want := MaterializeRuns([]*Segment{seg}).Fingerprint()
		again, err := DecodeSegment(EncodeSegment(seg))
		if err != nil {
			t.Fatalf("accepted blob re-encodes to one the decoder refuses: %v", err)
		}
		if got := MaterializeRuns([]*Segment{again}).Fingerprint(); got != want {
			t.Fatalf("re-encoded segment materializes to\n%s\nwant\n%s", got, want)
		}
	})
}
