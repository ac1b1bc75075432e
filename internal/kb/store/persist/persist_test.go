package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qkbfly/internal/kb/store"
)

// sim drives a Store the way a session would: pushing leaf segments into
// a merge tree and publishing each version, so tests can crash it at any
// point and compare recovery against the in-memory truth.
type sim struct {
	t       testing.TB
	store   *Store
	tree    *store.Tree
	version uint64
	nextSeq uint64
	docs    []string // live keys, arrival order
	seqs    map[string]uint64
	rng     *rand.Rand
	// window, when positive, bounds the live documents: ingest evicts the
	// oldest past it in the same version, as Session.Ingest does.
	window int
}

func newSim(t testing.TB, s *Store, seed int64) *sim {
	return &sim{t: t, store: s, tree: store.NewTree(nil),
		seqs: map[string]uint64{}, rng: rand.New(rand.NewSource(seed))}
}

// shardKB builds a deterministic tiny KB for a document key.
func shardKB(key string, flavor int) *store.KB {
	kb := store.New()
	kb.AddEntity(store.EntityRecord{ID: "E" + key, Name: "entity " + key,
		Mentions: []string{key}, Types: []string{fmt.Sprintf("T%d", flavor%3)}})
	for i := 0; i <= flavor%3; i++ {
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: fmt.Sprintf("E%d", (flavor+i)%5)},
			Relation:   fmt.Sprintf("rel%d", i),
			Objects:    []store.Value{{Literal: "v-" + key}},
			Confidence: 0.5 + float64(flavor%5)/10,
			Source:     store.Provenance{DocID: key, SentIndex: i},
		})
	}
	return kb
}

// ingest publishes one version adding the given docs (and evicting the
// oldest past the window), mirroring Session.Ingest's Publish call.
func (m *sim) ingest(keys ...string) {
	var addKeys []string
	var addSeqs []uint64
	var addSegs []*store.Segment
	for _, k := range keys {
		seg := store.SealSegment(shardKB(k, int(m.nextSeq)), "blob:"+k)
		m.tree = m.tree.Push(seg, m.nextSeq)
		m.seqs[k] = m.nextSeq
		m.docs = append(m.docs, k)
		addKeys = append(addKeys, k)
		addSeqs = append(addSeqs, m.nextSeq)
		addSegs = append(addSegs, seg)
		m.nextSeq++
	}
	var dels []uint64
	for m.window > 0 && len(m.docs) > m.window {
		seq := m.seqs[m.docs[0]]
		m.tree, _ = m.tree.Remove(seq)
		dels = append(dels, seq)
		delete(m.seqs, m.docs[0])
		m.docs = m.docs[1:]
	}
	m.version++
	m.store.Publish(m.version, m.nextSeq, addKeys, addSeqs, addSegs, dels, m.tree)
}

// evict publishes one version removing the given docs.
func (m *sim) evict(keys ...string) {
	var dels []uint64
	for _, k := range keys {
		seq, ok := m.seqs[k]
		if !ok {
			m.t.Fatalf("evict %q: not live", k)
		}
		m.tree, _ = m.tree.Remove(seq)
		dels = append(dels, seq)
		delete(m.seqs, k)
		for i, d := range m.docs {
			if d == k {
				m.docs = append(m.docs[:i], m.docs[i+1:]...)
				break
			}
		}
	}
	m.version++
	m.store.Publish(m.version, m.nextSeq, nil, nil, nil, dels, m.tree)
}

// replayTree rebuilds a tree from recovered docs by pushing in arrival
// order — what qkbfly.Restore does.
func replayTree(rec *Recovered) *store.Tree {
	t := store.NewTree(nil)
	for _, d := range rec.Docs {
		t = t.Push(d.Seg, d.Seq)
	}
	return t
}

func docKeys(rec *Recovered) []string {
	out := make([]string, len(rec.Docs))
	for i, d := range rec.Docs {
		out[i] = d.Key
	}
	return out
}

// resumeSim continues a history from a store's recovered state.
func resumeSim(t testing.TB, s *Store, rec *Recovered, seed int64) *sim {
	m := newSim(t, s, seed)
	m.tree, m.version, m.nextSeq = replayTree(rec), rec.Version, rec.NextSeq
	for _, d := range rec.Docs {
		m.docs = append(m.docs, d.Key)
		m.seqs[d.Key] = d.Seq
	}
	return m
}

// hashOf is a segment's blob address: the SHA-256 of its encoding.
func (s *Store) hashOf(seg *store.Segment) string { return blobHash(store.EncodeSegment(seg)) }

// logFrame is one record of a log file with its frame's byte range.
type logFrame struct {
	rec        *record
	start, end int64
}

// readLog returns a closed store's log and its intact frames.
func readLog(t testing.TB, dir string) ([]byte, []logFrame) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, ends, _ := scanManifest(data)
	frames := make([]logFrame, len(recs))
	start := int64(0)
	for i, r := range recs {
		frames[i] = logFrame{rec: r, start: start, end: ends[i]}
		start = ends[i]
	}
	return data, frames
}

// blobFrame returns the frame of the blob record whose bytes contain
// marker.
func blobFrame(t testing.TB, frames []logFrame, marker string) logFrame {
	t.Helper()
	for _, f := range frames {
		if f.rec.kind == 'B' && strings.Contains(string(f.rec.blob), marker) {
			return f
		}
	}
	t.Fatalf("no blob record holds %q", marker)
	return logFrame{}
}

// kinds spells the record kinds of a log, in order.
func kinds(frames []logFrame) string {
	var b strings.Builder
	for _, f := range frames {
		b.WriteByte(f.rec.kind)
	}
	return b.String()
}

func writeLog(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "manifest.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// logCapture collects a store's log lines.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) logf(format string, args ...any) {
	c.mu.Lock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *logCapture) has(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Contains(strings.Join(c.lines, "\n"), substr)
}

func mustOpen(t testing.TB, dir string, opt Options) (*Store, *Recovered) {
	t.Helper()
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	s, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, Options{})
	if rec.Version != 0 || len(rec.Docs) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	m := newSim(t, s, 1)
	m.ingest("a", "b", "c")
	m.ingest("d")
	m.evict("b")
	m.ingest("e", "f")
	wantKB := m.tree.Materialize()
	want := wantKB.Fingerprint()
	s.Flush()
	s.Seal(wantKB.Identity())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec2.Version != m.version || rec2.NextSeq != m.nextSeq {
		t.Fatalf("recovered version=%d nextSeq=%d, want %d/%d", rec2.Version, rec2.NextSeq, m.version, m.nextSeq)
	}
	if got, wantDocs := fmt.Sprint(docKeys(rec2)), fmt.Sprint(m.docs); got != wantDocs {
		t.Fatalf("recovered docs %s, want %s", got, wantDocs)
	}
	if !rec2.Sealed {
		t.Fatal("sealed manifest not reported as sealed")
	}
	if rec2.Identity != store.TextIdentity(want) {
		t.Fatal("seal identity mismatch")
	}
	// Without a memory budget recovery hands back resident segments (it
	// read and verified every blob anyway); each must still be demotable
	// and fault back to identical content.
	for _, d := range rec2.Docs {
		if !d.Seg.Resident() {
			t.Fatalf("recovered segment %q not resident (no memory budget set)", d.Key)
		}
		if d.Seg.Demote() <= 0 {
			t.Fatalf("recovered segment %q not demotable", d.Key)
		}
	}
	if got := replayTree(rec2).Materialize().Fingerprint(); got != want {
		t.Fatalf("restored fingerprint differs\n got %s\nwant %s", got, want)
	}

	// A budgeted reopen must come up lean: boot demotion holds the
	// recovered corpus under the budget instead of loading it all.
	s3, rec3 := mustOpen(t, dir, Options{MemoryBudget: 1})
	defer s3.Close()
	resident := 0
	for _, d := range rec3.Docs {
		resident += d.Seg.MemBytes()
	}
	if resident > 1 {
		t.Fatalf("budgeted reopen kept %d resident payload bytes (budget 1)", resident)
	}
	if got := replayTree(rec3).Materialize().Fingerprint(); got != want {
		t.Fatalf("budgeted restore fingerprint differs")
	}
}

// TestPersistLegacySealRecoversUnsealed: a manifest sealed under the
// earlier scheme — an 'S' record carrying the SHA-256 of the fingerprint
// text — still boots, at its version with all its documents, but as an
// unsealed recovery with a log line: its digest cannot be checked
// against an identity.
func TestPersistLegacySealRecoversUnsealed(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 3)
	m.ingest("a", "b")
	m.evict("a")
	m.ingest("c")
	want := m.tree.Materialize().Fingerprint()
	s.Close()

	// Append the seal exactly as the earlier Seal wrote it.
	s2, rec := mustOpen(t, dir, Options{})
	refs := make([]docRef, len(rec.Docs))
	for i, d := range rec.Docs {
		refs[i] = docRef{Key: d.Key, Seq: d.Seq, Hash: s2.hashOf(d.Seg)}
	}
	s2.Close()
	sum := sha256.Sum256([]byte(want))
	legacy := encodeRecord(&record{kind: 'S', version: rec.Version, nextSeq: rec.NextSeq,
		docs: refs, seal: hex.EncodeToString(sum[:])})
	f, err := os.OpenFile(filepath.Join(dir, "manifest.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var logs []string
	s3, rec3, err := Open(dir, Options{Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatalf("a legacy-sealed store must boot: %v", err)
	}
	defer s3.Close()
	if rec3.Sealed || rec3.Identity != (store.Identity{}) {
		t.Fatalf("legacy seal reported as a verifiable seal: %+v", rec3)
	}
	if rec3.Version != m.version || fmt.Sprint(docKeys(rec3)) != fmt.Sprint(m.docs) {
		t.Fatalf("recovered v%d %v, want v%d %v", rec3.Version, docKeys(rec3), m.version, m.docs)
	}
	if got := replayTree(rec3).Materialize().Fingerprint(); got != want {
		t.Fatal("legacy-sealed restore fingerprint differs")
	}
	if !strings.Contains(strings.Join(logs, "\n"), "older fingerprint-digest scheme") {
		t.Fatalf("no log line names the legacy seal; logs: %q", logs)
	}
}

func TestPersistRestartEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{CheckpointEvery: 3})
		m := newSim(t, s, seed)
		n := 0
		for step := 0; step < 40; step++ {
			if len(m.docs) > 2 && m.rng.Intn(3) == 0 {
				m.evict(m.docs[m.rng.Intn(len(m.docs))])
			} else {
				batch := []string{}
				for k := 0; k <= m.rng.Intn(2); k++ {
					batch = append(batch, fmt.Sprintf("doc-%d", n))
					n++
				}
				m.ingest(batch...)
			}
		}
		want := m.tree.Materialize().Fingerprint()
		s.Flush()
		s.Close()

		s2, rec := mustOpen(t, dir, Options{})
		if rec.Sealed {
			t.Fatalf("seed %d: unsealed close reported sealed", seed)
		}
		if rec.Version != m.version {
			t.Fatalf("seed %d: recovered version %d, want %d", seed, rec.Version, m.version)
		}
		if got := replayTree(rec).Materialize().Fingerprint(); got != want {
			t.Fatalf("seed %d: fingerprint mismatch after restart", seed)
		}
		s2.Close()
	}
}

// corruptTail simulates the classic torn writes against a closed store's
// directory and asserts recovery lands exactly on wantVersion.
func reopenExpect(t *testing.T, dir string, wantVersion uint64, wantDocs int) *Recovered {
	t.Helper()
	s, rec := mustOpen(t, dir, Options{})
	defer s.Close()
	if rec.Version != wantVersion {
		t.Fatalf("recovered version %d, want %d", rec.Version, wantVersion)
	}
	if len(rec.Docs) != wantDocs {
		t.Fatalf("recovered %d docs, want %d", len(rec.Docs), wantDocs)
	}
	// The recovered state must always be loadable end to end.
	if replayTree(rec).Materialize() == nil {
		t.Fatal("materialize failed")
	}
	return rec
}

func TestPersistTornManifestRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 2)
	m.ingest("a", "b")
	m.ingest("c")
	s.Flush()
	s.Close()

	// Tear the last record mid-frame: recovery must land on version 1.
	path := filepath.Join(dir, "manifest.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpect(t, dir, 1, 2)

	// And the truncation must have cleaned the tail: a fresh reopen after
	// the recovery sees a whole manifest again.
	reopenExpect(t, dir, 1, 2)
}

func TestPersistCrashBetweenBlobAndRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 3)
	m.ingest("a")
	s.Flush()
	s.Close()
	intact, _ := readLog(t, dir)

	// Simulate "blob appended, record never written": an orphan blob
	// record at the tail. Recovery must ignore it entirely and cut it
	// away (setting it aside).
	orphan := store.EncodeSegment(store.SealSegment(shardKB("orphan", 1), "blob:orphan"))
	writeLog(t, dir, append(append([]byte(nil), intact...), encodeRecord(&record{kind: 'B', hash: blobHash(orphan), blob: orphan})...))
	s2, rec := mustOpen(t, dir, Options{})
	if rec.Version != 1 || len(rec.Docs) != 1 {
		t.Fatalf("recovered v%d with %d docs, want v1 with 1", rec.Version, len(rec.Docs))
	}
	if got, _ := readLog(t, dir); len(got) != len(intact) {
		t.Fatalf("log is %d bytes after recovery, want the intact %d", len(got), len(intact))
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", fmt.Sprintf("manifest-%d", len(intact)))); err != nil {
		t.Fatalf("dropped orphan not set aside: %v", err)
	}

	// Publishing the orphan's content for real must append its blob again,
	// not reference the bytes the truncation removed.
	m2 := resumeSim(t, s2, rec, 3)
	m2.ingest("orphan") // flavor 1: the orphan's exact content
	want := m2.tree.Materialize().Fingerprint()
	s2.Flush()
	if c := s2.Counters(); c["blobs_written"] != 1 || c["blobs_reused"] != 0 {
		t.Fatalf("re-published orphan content: %v", c)
	}
	s2.Close()
	rec = reopenExpect(t, dir, 2, 2)
	if got := replayTree(rec).Materialize().Fingerprint(); got != want {
		t.Fatal("fingerprint differs after re-publishing the orphan's content")
	}
}

func TestPersistMissingBlobDropsVersion(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 4)
	m.ingest("a")
	m.ingest("b")
	m.ingest("c")
	s.Flush()
	s.Close()

	// Cut c's blob record out of the log: versions referencing it must be
	// dropped with a warning, recovery lands on version 2 with docs a, b,
	// and the dropped tail is set aside.
	data, frames := readLog(t, dir)
	victim := blobFrame(t, frames, "v-c")
	spliced := append(append([]byte(nil), data[:victim.start]...), data[victim.end:]...)
	writeLog(t, dir, spliced)
	var logs logCapture
	s2, rec, err := Open(dir, Options{Logf: logs.logf})
	if err != nil {
		t.Fatalf("recovery errored instead of dropping the version: %v", err)
	}
	defer s2.Close()
	if rec.Version != 2 || fmt.Sprint(docKeys(rec)) != "[a b]" {
		t.Fatalf("recovered v%d %v, want v2 [a b]", rec.Version, docKeys(rec))
	}
	if replayTree(rec).Materialize() == nil {
		t.Fatal("materialize failed")
	}
	if !logs.has("missing") {
		t.Fatalf("no warning names the missing blob; logs: %q", logs.lines)
	}
	tail, err := os.ReadFile(filepath.Join(dir, "quarantine", fmt.Sprintf("manifest-%d", victim.start)))
	if err != nil || string(tail) != string(spliced[victim.start:]) {
		t.Fatalf("dropped tail not set aside intact: %v", err)
	}
}

// TestPersistCorruptBlobQuarantined: a rotted blob in the log — caught
// by its frame checksum, or by its content address when the frame
// checksum was recomputed over the damage — drops the versions that need
// it with a warning and no panic, and the damaged bytes are set aside in
// quarantine/, never deleted.
func TestPersistCorruptBlobQuarantined(t *testing.T) {
	for _, refresh := range []bool{false, true} {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{})
		m := newSim(t, s, 5)
		m.ingest("a")
		m.ingest("b")
		s.Flush()
		s.Close()

		data, frames := readLog(t, dir)
		victim := blobFrame(t, frames, "v-b")
		blobStart := victim.end - int64(len(victim.rec.blob))
		data[blobStart+20] ^= 0xff
		if refresh {
			p := data[victim.start+frameHeaderLen : victim.end]
			copy(data[victim.start:victim.end], appendFrame(nil, p))
		}
		writeLog(t, dir, data)

		var logs logCapture
		s2, rec, err := Open(dir, Options{Logf: logs.logf})
		if err != nil {
			t.Fatalf("refresh=%v: recovery errored instead of quarantining: %v", refresh, err)
		}
		if rec.Version != 1 || len(rec.Docs) != 1 {
			t.Fatalf("refresh=%v: recovered version=%d docs=%d, want 1/1", refresh, rec.Version, len(rec.Docs))
		}
		s2.Close()
		tail, err := os.ReadFile(filepath.Join(dir, "quarantine", fmt.Sprintf("manifest-%d", victim.start)))
		if err != nil || string(tail) != string(data[victim.start:]) {
			t.Fatalf("refresh=%v: corrupt blob not quarantined intact: %v", refresh, err)
		}
		if !logs.has("quarantined") {
			t.Fatalf("refresh=%v: no quarantine warning logged; warnings: %v", refresh, logs.lines)
		}
		if refresh && !logs.has("content hash mismatch") {
			t.Fatalf("content-address check did not name the damage; warnings: %v", logs.lines)
		}
	}
}

func TestPersistCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CheckpointEvery: 2})
	m := newSim(t, s, 6)
	for i := 0; i < 9; i++ {
		m.ingest(fmt.Sprintf("d%d", i))
		if i%4 == 3 {
			m.evict(m.docs[0])
		}
	}
	want := m.tree.Materialize().Fingerprint()
	s.Flush()
	if got := s.Counters()["checkpoints"]; got == 0 {
		t.Fatal("no checkpoints written")
	}
	s.Close()

	_, rec := mustOpen(t, dir, Options{})
	if got := replayTree(rec).Materialize().Fingerprint(); got != want {
		t.Fatal("fingerprint mismatch after checkpointed restart")
	}
}

func TestPersistDemotionBudget(t *testing.T) {
	dir := t.TempDir()
	// A tiny budget forces everything cold after each writeback.
	s, _ := mustOpen(t, dir, Options{MemoryBudget: 1})
	m := newSim(t, s, 7)
	for i := 0; i < 8; i++ {
		m.ingest(fmt.Sprintf("d%d", i))
	}
	want := m.tree.Materialize().Fingerprint() // faults everything back
	s.Flush()
	c := s.Counters()
	if c["demoted_segments"] == 0 {
		t.Fatalf("no demotions under a 1-byte budget: %v", c)
	}
	s.Flush() // barrier: the demotion sweep after the last version ran
	if got := m.tree.Materialize().Fingerprint(); got != want {
		t.Fatal("fingerprint changed after demotion")
	}
	if s.Counters()["blobs_loaded"] == 0 {
		t.Fatal("no faults recorded despite demotion")
	}
	s.Close()
}

func TestPersistContentAddressingDedups(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 8)
	m.ingest("x")
	m.evict("x")
	// Same key re-ingested at the same flavor seq parity may differ; use a
	// fresh sim seq — instead publish an identical segment directly.
	seg := store.SealSegment(shardKB("x", 0), "blob:x")
	seg2 := store.SealSegment(shardKB("x", 0), "blob:x")
	m.version++
	m.store.Publish(m.version, m.nextSeq+1, []string{"x1"}, []uint64{m.nextSeq}, []*store.Segment{seg}, nil, m.tree)
	m.version++
	m.store.Publish(m.version, m.nextSeq+2, []string{"x2"}, []uint64{m.nextSeq + 1}, []*store.Segment{seg2}, nil, m.tree)
	s.Flush()
	c := s.Counters()
	if c["blobs_reused"] == 0 {
		t.Fatalf("identical content not deduped: %v", c)
	}
	s.Close()
}

// TestPersistSealRewritesLogToLiveWindow: a seal rewrites the log to
// the live window alone — one blob record per live document, then the
// seal — so the next boot reads one file holding nothing else, and
// serves every blob from it.
func TestPersistSealRewritesLogToLiveWindow(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	m := newSim(t, s, 7)
	m.ingest("a", "b", "c")
	m.ingest("d")
	m.evict("a", "c")
	m.ingest("e")
	wantKB := m.tree.Materialize()
	want := wantKB.Fingerprint()
	s.Flush()
	s.Seal(wantKB.Identity())
	if c := s.Counters(); c["rewrite_bytes"] == 0 || c["checkpoints"] != 1 {
		t.Fatalf("seal did not rewrite the log: %v", c)
	}
	s.Close()

	if _, frames := readLog(t, dir); kinds(frames) != "BBBI" {
		t.Fatalf("sealed log holds records %q, want the 3 live blobs and the seal", kinds(frames))
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "manifest.log" && e.Name() != "quarantine" {
			t.Fatalf("data directory holds %s besides the log", e.Name())
		}
	}
	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if !rec.Sealed || rec.Identity != wantKB.Identity() {
		t.Fatalf("sealed reopen: sealed=%v", rec.Sealed)
	}
	if fmt.Sprint(docKeys(rec)) != "[b d e]" {
		t.Fatalf("recovered docs %v, want [b d e]", docKeys(rec))
	}
	if got := replayTree(rec).Materialize().Fingerprint(); got != want {
		t.Fatal("sealed reopen fingerprint differs")
	}
}
