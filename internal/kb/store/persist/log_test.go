package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"weak"

	"qkbfly/internal/kb/store"
)

// TestPersistCrashPointsReopenToLastCompleteVersion kills the store at
// every step of a version append and of a checkpoint rewrite, by laying
// out the bytes each step leaves on disk, and requires each reopen to
// land on the last complete version with its fingerprint and no missing
// blob.
func TestPersistCrashPointsReopenToLastCompleteVersion(t *testing.T) {
	const k = 4 // the rewrite runs after version k
	// run drives the same history into dir: version v adds two documents,
	// so each version appends two blob records and its version record.
	run := func(dir string, every, versions int) []string {
		s, _ := mustOpen(t, dir, Options{CheckpointEvery: every})
		m := newSim(t, s, 11)
		fps := []string{""}
		for v := 1; v <= versions; v++ {
			m.ingest(fmt.Sprintf("x%d", v), fmt.Sprintf("y%d", v))
			fps = append(fps, m.tree.Materialize().Fingerprint())
		}
		s.Flush()
		s.Close()
		return fps
	}
	plain := t.TempDir()
	run(plain, 1000, k) // the log as it stands when the rewrite starts
	rewritten := t.TempDir()
	fps := run(rewritten, k, k+1)
	before, _ := readLog(t, plain)
	after, frames := readLog(t, rewritten)
	if got := kinds(frames); got != "BBBBBBBBCBBV" {
		t.Fatalf("rewritten log holds records %q", got)
	}
	rewrite := after[:frames[8].end] // the live blobs and the checkpoint
	next := frames[9:]               // version k+1: two blobs, then its record

	cases := []struct {
		name     string
		log, tmp []byte
		want     uint64
	}{
		{"torn blob record", after[:next[0].start+20], nil, k},
		{"blob records without their version", after[:next[1].end], nil, k},
		{"partial rewrite", before, rewrite[:len(rewrite)/2], k},
		{"complete rewrite never renamed", before, rewrite, k},
		{"rewrite renamed", rewrite, nil, k},
		{"rewrite renamed, one more version appended", after, nil, k + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLog(t, dir, c.log)
			tmp := filepath.Join(dir, "manifest.log.tmp")
			if c.tmp != nil {
				if err := os.WriteFile(tmp, c.tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for reopen := 0; reopen < 2; reopen++ {
				s, rec := mustOpen(t, dir, Options{})
				if rec.Version != c.want || len(rec.Docs) != 2*int(c.want) {
					t.Fatalf("reopen %d: recovered v%d with %d docs, want v%d", reopen, rec.Version, len(rec.Docs), c.want)
				}
				if got := replayTree(rec).Materialize().Fingerprint(); got != fps[c.want] {
					t.Fatalf("reopen %d: fingerprint differs from version %d", reopen, c.want)
				}
				s.Close()
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("rewrite temp file survived Open: %v", err)
			}
		})
	}
}

// TestPersistRewriteKeepsReachableDemotedBlobs: under a memory budget a
// segment demoted while live can be evicted and still be reachable from
// an old snapshot. A rewrite must keep its blob while it is, and may
// drop it once it is not.
func TestPersistRewriteKeepsReachableDemotedBlobs(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{MemoryBudget: 1, CheckpointEvery: 2})
	defer s.Close()
	m := newSim(t, s, 12)
	m.ingest("a", "b")
	m.ingest("c")
	old := m.tree
	want := old.Materialize().Fingerprint()
	m.ingest("d") // its sweep demotes a, b and c again
	s.Flush()
	for _, seg := range old.AllSegments() {
		if seg.Resident() {
			t.Fatal("old snapshot not demoted under a 1-byte budget")
		}
	}
	m.evict("a", "b", "c")
	for i := 0; i < 6; i++ { // three rewrites past the window slide
		m.ingest(fmt.Sprintf("n%d", i))
	}
	s.Flush()
	if got := old.Materialize().Fingerprint(); got != want {
		t.Fatal("old snapshot faulted back different content")
	}

	// Once nothing can fault them in, the next rewrite drops them.
	old = nil
	runtime.GC()
	m.ingest("n6")
	m.ingest("n7")
	s.Flush()
	if got, live := len(s.index), len(m.docs); got != live {
		t.Fatalf("log holds %d blobs after the snapshot went, want the %d live", got, live)
	}
}

// TestPersistFaultsDuringRewrites: readers fault demoted segments in from
// the log while writeback appends versions and rewrites the log under
// them; every snapshot keeps the content it was published with.
func TestPersistFaultsDuringRewrites(t *testing.T) {
	type snap struct {
		tree *store.Tree
		fp   string
	}
	s, _ := mustOpen(t, t.TempDir(), Options{MemoryBudget: 1, CheckpointEvery: 2})
	defer s.Close()
	m := newSim(t, s, 18)
	m.window = 6
	snaps := make(chan snap, 64)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sn := range snaps {
				if got := sn.tree.Materialize().Fingerprint(); got != sn.fp {
					t.Error("snapshot faulted back different content")
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		m.ingest(fmt.Sprintf("r%d", i), fmt.Sprintf("s%d", i))
		snaps <- snap{m.tree, m.tree.Materialize().Fingerprint()}
	}
	close(snaps)
	wg.Wait()
	s.Flush()
}

// TestPersistEvictedSegmentsCollected: the store must not pin the
// segments it wrote. Once a document leaves the window, its segment is
// garbage.
func TestPersistEvictedSegmentsCollected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	defer s.Close()
	m := newSim(t, s, 13)
	m.window = 4
	m.ingest("first")
	first := weak.Make(m.tree.AllSegments()[0])
	for i := 0; i < 16; i++ {
		m.ingest(fmt.Sprintf("d%d", i))
	}
	s.Flush()
	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("an evicted document's segment is still reachable after writeback")
	}
}

// TestPersistOpenRemovesStrayTempFiles: a kill inside a write leaves its
// temp file behind; Open removes every kind the store has written.
func TestPersistOpenRemovesStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 14)
	m.ingest("a", "b")
	s.Flush()
	s.Close()

	stray := []string{"manifest.log.tmp", ".tmp-pack-123", filepath.Join("blobs", ".tmp-blob-456")}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range stray {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopenExpect(t, dir, 1, 2)
	for _, name := range stray {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open: %v", name, err)
		}
	}
}

// TestPersistOpensLegacyLayout: a directory written before blobs were
// inlined — one file per blob under blobs/, a log of version and seal
// records only, and a pack — opens at its sealed version. The first
// Open moves the blobs into the log and removes blobs/ and the pack.
func TestPersistOpensLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	tree := store.NewTree(nil)
	var refs []docRef
	var log []byte
	for i, key := range []string{"a", "b", "c"} {
		seg := store.SealSegment(shardKB(key, i), "blob:"+key)
		blob := store.EncodeSegment(seg)
		ref := docRef{Key: key, Seq: uint64(i), Hash: blobHash(blob)}
		if err := os.WriteFile(filepath.Join(dir, "blobs", ref.Hash), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		tree = tree.Push(seg, ref.Seq)
		refs = append(refs, ref)
		log = append(log, encodeRecord(&record{kind: 'V', version: uint64(i + 1), nextSeq: uint64(i + 1), adds: []docRef{ref}})...)
	}
	wantKB := tree.Materialize()
	want := wantKB.Fingerprint()
	log = append(log, encodeRecord(&record{kind: 'I', version: 3, nextSeq: 3, docs: refs, seal: wantKB.Identity().Hex()})...)
	writeLog(t, dir, log)
	if err := os.WriteFile(filepath.Join(dir, "pack"), []byte("qpak\x01"), 0o644); err != nil {
		t.Fatal(err)
	}

	for boot := 0; boot < 2; boot++ {
		s, rec := mustOpen(t, dir, Options{})
		if rec.Version != 3 || !rec.Sealed || rec.Identity != wantKB.Identity() {
			t.Fatalf("boot %d: recovered v%d sealed=%v", boot, rec.Version, rec.Sealed)
		}
		if got := replayTree(rec).Materialize().Fingerprint(); got != want {
			t.Fatalf("boot %d: fingerprint differs", boot)
		}
		s.Close()
		for _, name := range []string{"blobs", "pack"} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("boot %d: %s survived the conversion: %v", boot, name, err)
			}
		}
		if _, frames := readLog(t, dir); kinds(frames) != "BBBI" {
			t.Fatalf("boot %d: converted log holds records %q", boot, kinds(frames))
		}
	}
}

// TestPersistRewriteBoundsLog: a long history over a small window leaves
// a log that holds the live window plus at most one checkpoint interval.
func TestPersistRewriteBoundsLog(t *testing.T) {
	const window, every = 8, 4
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CheckpointEvery: every})
	m := newSim(t, s, 15)
	m.window = window
	for i := 0; i < 200; i++ {
		m.ingest(fmt.Sprintf("p%d", i), fmt.Sprintf("q%d", i))
	}
	want := m.tree.Materialize().Fingerprint()
	s.Flush()
	s.Close()
	_, frames := readLog(t, dir)
	if n := len(frames); n > window+every*3 {
		t.Fatalf("log holds %d records after 200 versions over a %d-document window", n, window)
	}
	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec.Version != 200 {
		t.Fatalf("recovered v%d, want v200", rec.Version)
	}
	if got := replayTree(rec).Materialize().Fingerprint(); got != want {
		t.Fatal("fingerprint differs after rewrites")
	}
}

// FuzzScanManifest: the log parser never panics, and every record it
// accepts — from a log or as a bare payload — re-encodes to exactly the
// bytes it was read from.
func FuzzScanManifest(f *testing.F) {
	dir := f.TempDir()
	s, _ := mustOpen(f, dir, Options{CheckpointEvery: 3})
	m := newSim(f, s, 16)
	m.ingest("a", "b")
	m.evict("a")
	m.ingest("c")
	m.ingest("d")
	s.Flush()
	s.Seal(m.tree.Materialize().Identity())
	m.ingest("e")
	s.Flush()
	s.Close()
	data, _ := readLog(f, dir)
	f.Add(data)
	f.Add(data[:len(data)-5])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(encodeRecord(&record{kind: 'S', version: 1, docs: []docRef{{Key: "k", Seq: 1, Hash: "h"}}, seal: "x"}))
	// Bare payloads reach decodeRecord past the frame checksum, which a
	// mutated frame almost never passes.
	recs, ends, _ := scanManifest(data)
	for i, r := range recs {
		if r.kind != 'B' {
			f.Add(data[ends[i]-int64(len(encodeRecord(r)))+frameHeaderLen : ends[i]])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeRecord(data); err == nil {
			if got, want := encodeRecord(r), appendFrame(nil, data); !bytes.Equal(got, want) {
				t.Fatalf("payload %x decodes to a %c record that re-encodes to %x", data, r.kind, got[frameHeaderLen:])
			}
		}
		recs, ends, torn := scanManifest(data)
		start := int64(0)
		for i, r := range recs {
			if got := encodeRecord(r); !bytes.Equal(got, data[start:ends[i]]) {
				t.Fatalf("record %d (%c) re-encodes to %x, read from %x", i, r.kind, got, data[start:ends[i]])
			}
			start = ends[i]
		}
		if !torn && start != int64(len(data)) {
			t.Fatalf("scan accepted %d of %d bytes without reporting a torn tail", start, len(data))
		}
	})
}

// BenchmarkPersistWriteback times durable writeback of a 1024-document
// window fed four documents per version, one op per version, and reports
// the blob bytes appended and the bytes checkpoint rewrites copied
// forward per version.
func BenchmarkPersistWriteback(b *testing.B) {
	s, _ := mustOpen(b, b.TempDir(), Options{Logf: func(string, ...any) {}})
	m := newSim(b, s, 17)
	m.window = 1024
	keys := make([]string, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = fmt.Sprintf("w%d-%d", i, j)
		}
		m.ingest(keys...)
	}
	s.Flush()
	b.StopTimer()
	c := s.Counters()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/version")
	b.ReportMetric(float64(c["blob_bytes"])/float64(b.N), "blob-B/version")
	b.ReportMetric(float64(c["rewrite_bytes"])/float64(b.N), "rewrite-B/version")
	s.Close()
}
