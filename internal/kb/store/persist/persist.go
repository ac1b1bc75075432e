// Package persist is the durable, content-addressed segment store behind
// qkbflyd's warm restarts. Sealed leaf segments are serialized once
// (store.EncodeSegment) into immutable blobs named by the SHA-256 of
// their bytes. Blobs and state share one log (manifest.go): per
// published session version, the version's new blobs and then a record
// naming which blobs are live and at which arrival sequences, appended
// with one write and one fsync. The split follows the LSST
// chunk/manifest design: bulk data is immutable and content-addressed,
// and the store scales with its live partitions, not with its history —
// every CheckpointEvery versions the log is rewritten down to the blobs
// still needed.
//
// Durability stays off the ingest hot path: Publish only enqueues; a
// background writeback goroutine encodes blobs, appends and fsyncs them
// with the version record, and then sweeps cold segments down to the
// memory budget (Polynesia-style background writeback over immutable
// snapshots). Crash consistency comes from ordering alone — a version's
// blobs precede its record in the log, each write is fsynced before the
// next, and a rewrite reaches the log only by an fsynced rename — so
// after any crash the log's intact prefix describes a complete, loadable
// version.
//
// Only leaf (per-document) blobs are ever written. Partial merges
// rehydrate by re-merging their children (store.MergeSegments arms every
// merged segment with a self-healing loader), so the log stays
// proportional to the live corpus, not to the merge tree.
package persist

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"weak"

	"qkbfly/internal/kb/store"
)

// Options configure a Store.
type Options struct {
	// MemoryBudget is the resident-payload byte budget across every
	// segment reachable from the latest published tree. After each
	// writeback the least-recently-used segments demote to disk until the
	// total fits. 0 disables demotion (everything stays resident).
	MemoryBudget int
	// CheckpointEvery rewrites the log after this many version records
	// to one blob record per blob still needed and one checkpoint, so
	// recovery replays at most this many versions and the log holds the
	// live window plus one interval. Default 256.
	CheckpointEvery int
	// Logf receives recovery and quarantine warnings. Default log.Printf.
	Logf func(format string, args ...any)
}

// queueDepth is the pending-version queue between Publish and the
// writeback goroutine. A full queue applies backpressure to ingestion
// rather than dropping durability.
const queueDepth = 64

// RecoveredDoc is one live document restored from the manifest. Its
// segment is resident (recovery already read and verified the whole
// blob, so decoding it on the spot is nearly free and saves the restore
// path a second read of every blob) with the fault-in loader attached —
// under a MemoryBudget, cold segments demote again before Open returns.
type RecoveredDoc struct {
	Key string
	Seq uint64
	Seg *store.Segment
}

// Recovered is the session state a Store recovered at Open: the last
// complete version the manifest describes.
type Recovered struct {
	Version uint64
	NextSeq uint64
	Docs    []RecoveredDoc // arrival order
	// Sealed reports a clean shutdown: the manifest ended with a seal
	// record, so Identity can verify the restored KB.
	Sealed bool
	// Identity is the sealed version's content identity (zero unless
	// Sealed).
	Identity store.Identity
	// Dropped counts manifest records discarded during recovery (torn
	// tail or records referencing unverifiable blobs).
	Dropped int
}

// job is one unit of writeback work.
type job struct {
	version uint64
	nextSeq uint64
	adds    []addJob
	dels    []uint64
	tree    *store.Tree
	// control jobs (flush/seal) leave tree nil and signal done.
	seal *store.Identity // identity to seal with (nil for plain flush)
	done chan struct{}
}

type addJob struct {
	key string
	seq uint64
	seg *store.Segment
}

// blobLoc is where a blob's bytes sit in the log.
type blobLoc struct {
	off int64
	n   int
}

// Store is a durable segment store rooted at one data directory:
//
//	<dir>/manifest.log       blob, version, checkpoint and seal records
//	<dir>/quarantine/        log tails recovery dropped, set aside
//
// One Store owns its directory exclusively (qkbflyd opens exactly one).
type Store struct {
	dir string
	opt Options

	// logMu guards the log handle and the blob index: loaders read blobs
	// while writeback appends, and a rewrite swaps both. Only the
	// writeback goroutine (and Open, before it starts) changes them, so
	// it reads them without the lock.
	logMu sync.RWMutex
	log   *os.File
	index map[string]blobLoc // blob hash → its bytes in the log

	jobs chan job
	wg   sync.WaitGroup

	// Writeback-goroutine state (no locking needed): the log's length,
	// the live document mirror the next checkpoint writes, the version
	// record count since the last checkpoint, and, per blob hash, the
	// segments whose loaders read it (weakly: a rewrite keeps a blob that
	// is not live while one of them is still reachable and demoted).
	size       int64
	docs       []docRef
	version    uint64
	nextSeq    uint64
	sinceCheck int
	armed      map[string][]weak.Pointer[store.Segment]

	// latestTree is the most recent published tree — Counters reads it
	// for the resident-bytes gauge while the writeback goroutine updates
	// it, hence the lock.
	treeMu     sync.Mutex
	latestTree *store.Tree

	closed atomic.Bool

	// counters surfaced through Counters (and /stats).
	blobsWritten   atomic.Int64
	blobBytes      atomic.Int64
	blobsReused    atomic.Int64
	blobsLoaded    atomic.Int64
	loadBytes      atomic.Int64
	demoted        atomic.Int64
	demotedBytes   atomic.Int64
	quarantined    atomic.Int64
	records        atomic.Int64
	checkpoints    atomic.Int64
	rewriteBytes   atomic.Int64
	recoveredVer   atomic.Int64
	recoveredDocs  atomic.Int64
	droppedRecords atomic.Int64
}

// Open opens (or initializes) a data directory, runs recovery, and
// starts the writeback goroutine. The returned Recovered describes the
// last complete persisted version (empty for a fresh directory); wire it
// into qkbfly.Restore to warm-start a session, and pass the Store as the
// session's Persistence to keep persisting. Demoted segments fault in
// through the open Store: materialize what you need before Close.
func Open(dir string, opt Options) (*Store, *Recovered, error) {
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 256
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, nil, err
	}
	// A crash inside a write leaves its temp file behind: a log rewrite's,
	// or an older layout's blob or pack.
	for _, pat := range []string{"manifest.log.tmp", ".tmp-pack-*", filepath.Join("blobs", ".tmp-blob-*")} {
		stray, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, p := range stray {
			_ = os.Remove(p) // nothing reads them; a leftover only costs space
		}
	}
	s := &Store{dir: dir, opt: opt, jobs: make(chan job, queueDepth),
		armed: make(map[string][]weak.Pointer[store.Segment])}
	rec, err := s.recover()
	if err != nil {
		if s.log != nil {
			s.log.Close()
		}
		return nil, nil, err
	}
	s.recoveredVer.Store(int64(rec.Version))
	s.recoveredDocs.Store(int64(len(rec.Docs)))
	s.droppedRecords.Store(int64(rec.Dropped))

	s.wg.Add(1)
	go s.writeback()
	return s, rec, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.log") }

// legacyBlobPath is where a store written before blobs were inlined kept
// a blob.
func (s *Store) legacyBlobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Publish implements the session Persistence hook: it records one
// published version for asynchronous writeback. Called under the session
// lock — it only enqueues (backpressure applies when the queue is full).
// After Close it is a no-op.
func (s *Store) Publish(version, nextSeq uint64, addKeys []string, addSeqs []uint64,
	addSegs []*store.Segment, delSeqs []uint64, tree *store.Tree) {
	if s.closed.Load() {
		return
	}
	adds := make([]addJob, len(addKeys))
	for i := range addKeys {
		adds[i] = addJob{key: addKeys[i], seq: addSeqs[i], seg: addSegs[i]}
	}
	s.jobs <- job{version: version, nextSeq: nextSeq, adds: adds, dels: delSeqs, tree: tree}
}

// Flush blocks until every version published so far is durably written.
func (s *Store) Flush() {
	if s.closed.Load() {
		return
	}
	done := make(chan struct{})
	s.jobs <- job{done: done}
	<-done
}

// Seal flushes and rewrites the log ending in a seal record carrying the
// current version's content identity, making the next boot a verified
// warm restart. Call it at graceful shutdown, after the session stops
// publishing.
func (s *Store) Seal(id store.Identity) {
	if s.closed.Load() {
		return
	}
	done := make(chan struct{})
	s.jobs <- job{seal: &id, done: done}
	<-done
}

// Close drains pending writeback and stops the store. The manifest is
// NOT sealed — call Seal first for a clean shutdown marker.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.jobs)
	s.wg.Wait()
	return s.log.Close()
}

// Counters returns a snapshot of the store's activity counters, suitable
// for /stats. blob_bytes counts blobs appended for new content and
// rewrite_bytes the blob bytes checkpoint rewrites copied forward.
// resident_bytes is a point-in-time gauge over the latest published tree.
func (s *Store) Counters() map[string]int64 {
	m := map[string]int64{
		"blobs_written":     s.blobsWritten.Load(),
		"blob_bytes":        s.blobBytes.Load(),
		"blobs_reused":      s.blobsReused.Load(),
		"blobs_loaded":      s.blobsLoaded.Load(),
		"load_bytes":        s.loadBytes.Load(),
		"demoted_segments":  s.demoted.Load(),
		"demoted_bytes":     s.demotedBytes.Load(),
		"quarantined":       s.quarantined.Load(),
		"manifest_records":  s.records.Load(),
		"checkpoints":       s.checkpoints.Load(),
		"rewrite_bytes":     s.rewriteBytes.Load(),
		"recovered_version": s.recoveredVer.Load(),
		"recovered_docs":    s.recoveredDocs.Load(),
		"dropped_records":   s.droppedRecords.Load(),
	}
	if t := s.treeSnapshot(); t != nil {
		var resident int64
		for _, seg := range t.AllSegments() {
			resident += int64(seg.MemBytes())
		}
		m["resident_bytes"] = resident
	}
	return m
}

func (s *Store) treeSnapshot() *store.Tree {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.latestTree
}

func (s *Store) setTree(t *store.Tree) {
	s.treeMu.Lock()
	s.latestTree = t
	s.treeMu.Unlock()
}

// writeback is the background goroutine: one version at a time, blobs
// before record, fsync before acknowledging.
func (s *Store) writeback() {
	defer s.wg.Done()
	for j := range s.jobs {
		switch {
		case j.seal != nil:
			s.checkpoint(&record{kind: 'I', seal: j.seal.Hex()})
			close(j.done)
		case j.done != nil:
			close(j.done) // flush barrier: everything before it is durable
		default:
			s.writeVersion(j)
		}
	}
}

func blobHash(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// writeVersion makes one published version durable: its new blobs and
// its record in one write and one fsync. Re-publishing content the log
// already holds (the common case for re-ingested documents) appends no
// blob: content addressing is the dedup.
func (s *Store) writeVersion(j job) {
	rec := &record{kind: 'V', version: j.version, nextSeq: j.nextSeq, dels: j.dels}
	var buf []byte
	fresh := make(map[string]blobLoc, len(j.adds))
	written := int64(0)
	for _, a := range j.adds {
		blob := store.EncodeSegment(a.seg)
		h := blobHash(blob)
		_, old := s.index[h]
		_, dup := fresh[h]
		if old || dup {
			s.blobsReused.Add(1)
		} else {
			buf = appendBlobFrame(buf, h, blob)
			fresh[h] = blobLoc{off: s.size + int64(len(buf)-len(blob)), n: len(blob)}
			written += int64(len(blob))
		}
		rec.adds = append(rec.adds, docRef{Key: a.key, Seq: a.seq, Hash: h})
	}
	if err := s.appendLog(append(buf, encodeRecord(rec)...)); err != nil {
		// Disk trouble mid-writeback: warn and stop persisting this
		// version (recovery will land on the previous one). Subsequent
		// versions would be inconsistent without this one's blobs, so
		// this is deliberately loud.
		s.opt.Logf("persist: appending version %d: %v (version not persisted)", j.version, err)
		return
	}
	s.records.Add(1)
	s.blobsWritten.Add(int64(len(fresh)))
	s.blobBytes.Add(written)
	if len(fresh) > 0 {
		s.logMu.Lock()
		for h, l := range fresh {
			s.index[h] = l
		}
		s.logMu.Unlock()
	}
	// The blobs are durable: the segments may now demote.
	for i, a := range j.adds {
		s.arm(a.seg, rec.adds[i].Hash)
	}
	// Update the live mirror: apply dels, then adds (matching session
	// order is irrelevant — seqs are unique).
	if len(j.dels) > 0 {
		s.docs = removeSeqs(s.docs, j.dels)
	}
	s.docs = append(s.docs, rec.adds...)
	s.version = j.version
	s.nextSeq = j.nextSeq
	s.setTree(j.tree)

	s.sinceCheck++
	if s.sinceCheck >= s.opt.CheckpointEvery {
		s.checkpoint(&record{kind: 'C'})
	}
	s.demoteToBudget(j.tree)
}

// removeSeqs drops the documents with the given arrival sequences, in
// place.
func removeSeqs(docs []docRef, seqs []uint64) []docRef {
	gone := make(map[uint64]bool, len(seqs))
	for _, d := range seqs {
		gone[d] = true
	}
	kept := docs[:0]
	for _, d := range docs {
		if !gone[d.Seq] {
			kept = append(kept, d)
		}
	}
	return kept
}

// appendLog writes b at the end of the log and fsyncs it. On failure it
// cuts the log back, so a later append does not land behind a partial
// frame.
func (s *Store) appendLog(b []byte) error {
	_, err := s.log.WriteAt(b, s.size)
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		_ = s.log.Truncate(s.size) // best effort: recovery cuts a torn tail anyway
		return err
	}
	s.size += int64(len(b))
	return nil
}

// checkpoint rewrites the log ending in term (a checkpoint or a seal
// over the live documents). Should the rewrite fail, term is appended
// instead: replay stays bounded and a seal is still recorded, though the
// log keeps its history until a later rewrite succeeds.
func (s *Store) checkpoint(term *record) {
	s.sinceCheck = 0
	err := s.rewrite(term, s.readBlob)
	if err == nil {
		return
	}
	s.opt.Logf("persist: rewriting the log at version %d: %v (appending the %c record instead)", s.version, err, term.kind)
	if err := s.appendLog(encodeRecord(term)); err != nil {
		s.opt.Logf("persist: appending %c record for version %d: %v", term.kind, s.version, err)
		return
	}
	s.records.Add(1)
	s.checkpoints.Add(1)
}

// rewrite replaces the log with one 'B' record per blob still needed
// followed by term, filled in with the live state. It writes
// manifest.log.tmp, fsyncs it, renames it over the log and syncs the
// directory, so a crash at any step leaves either the old log or the new
// one, each ending in a complete version. read supplies a blob's bytes;
// each is checked against its address while being copied, so a rotted
// blob is never re-framed under a fresh checksum.
func (s *Store) rewrite(term *record, read func(h string) ([]byte, error)) (err error) {
	term.version, term.nextSeq, term.docs = s.version, s.nextSeq, s.docs
	tmp := s.manifestPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 256<<10)
	keep := s.neededBlobs()
	index := make(map[string]blobLoc, len(keep))
	var frame []byte
	off, copied := int64(0), int64(0)
	for _, h := range keep {
		blob, err := read(h)
		if err != nil {
			return err
		}
		if blobHash(blob) != h {
			return fmt.Errorf("blob %s: content hash mismatch", h[:12])
		}
		frame = appendBlobFrame(frame[:0], h, blob)
		if _, err := w.Write(frame); err != nil {
			return err
		}
		off += int64(len(frame))
		index[h] = blobLoc{off: off - int64(len(blob)), n: len(blob)}
		copied += int64(len(blob))
	}
	frame = encodeRecord(term)
	if _, err := w.Write(frame); err != nil {
		return err
	}
	off += int64(len(frame))
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.manifestPath()); err != nil {
		return err
	}
	// From here on the new log is the log; a failed directory sync only
	// leaves the rename's durability to the file system's next commit.
	if err := syncDir(s.dir); err != nil {
		s.opt.Logf("persist: syncing %s after rewriting the log: %v", s.dir, err)
	}
	s.logMu.Lock()
	old := s.log
	s.log, s.index = f, index
	s.logMu.Unlock()
	if old != nil {
		old.Close()
	}
	s.size = off
	s.records.Add(1)
	s.checkpoints.Add(1)
	s.rewriteBytes.Add(copied)
	for h, ws := range s.armed {
		if _, ok := index[h]; !ok {
			delete(s.armed, h)
			continue
		}
		live := ws[:0]
		for _, p := range ws {
			if p.Value() != nil {
				live = append(live, p)
			}
		}
		s.armed[h] = live
	}
	return nil
}

// neededBlobs lists the blobs a rewrite must keep: every live
// document's, in arrival order, then (sorted) any other blob a segment
// that is still reachable and demoted can fault in — under a memory
// budget a segment demoted while live stays reachable after its eviction
// from retained history trees and subscribers' snapshots. A segment
// still resident then is never demoted again (demotion sweeps only the
// latest tree, whose leaves are all live), so its blob may go.
func (s *Store) neededBlobs() []string {
	seen := make(map[string]bool, len(s.docs))
	var keep, extra []string
	for _, d := range s.docs {
		if !seen[d.Hash] {
			seen[d.Hash] = true
			keep = append(keep, d.Hash)
		}
	}
	for h, ws := range s.armed {
		if seen[h] {
			continue
		}
		for _, p := range ws {
			if seg := p.Value(); seg != nil && !seg.Resident() {
				extra = append(extra, h)
				break
			}
		}
	}
	sort.Strings(extra)
	return append(keep, extra...)
}

// syncDir fsyncs a directory so a renamed-in file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// arm attaches the read-back loader to a segment whose blob is durable.
func (s *Store) arm(seg *store.Segment, h string) {
	seg.AttachLoader(s.loader(h))
	s.armed[h] = append(s.armed[h], weak.Make(seg))
}

// readBlob reads a blob's bytes from the log.
func (s *Store) readBlob(h string) ([]byte, error) {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	l, ok := s.index[h]
	if !ok {
		return nil, fmt.Errorf("persist: blob %s is not in the log", h[:12])
	}
	b := make([]byte, l.n)
	if _, err := s.log.ReadAt(b, l.off); err != nil {
		return nil, err
	}
	return b, nil
}

// loader returns the fault-in function for a blob: read, verify, decode.
// A corrupt blob is reported as an error with a warning — for a leaf
// there is no rebuilding the payload from a dead document, so the fault
// escalates (store.Segment panics) rather than serving bad content; the
// next boot's recovery sets the damaged log tail aside.
func (s *Store) loader(h string) func() (*store.Segment, error) {
	return func() (*store.Segment, error) {
		blob, err := s.readBlob(h)
		if err != nil {
			return nil, err
		}
		if blobHash(blob) != h {
			s.opt.Logf("persist: blob %s corrupt in the log (content hash mismatch)", h[:12])
			return nil, fmt.Errorf("persist: blob %s corrupt (content hash mismatch)", h[:12])
		}
		seg, err := store.DecodeSegment(blob)
		if err != nil {
			s.opt.Logf("persist: blob %s corrupt in the log: %v", h[:12], err)
			return nil, fmt.Errorf("persist: blob %s corrupt: %w", h[:12], err)
		}
		s.blobsLoaded.Add(1)
		s.loadBytes.Add(int64(len(blob)))
		return seg, nil
	}
}

// demoteToBudget sweeps the latest tree's segments, least recently used
// first, until resident payload bytes fit the memory budget. Only
// demotable segments (durable leaves, re-mergeable partial merges) are
// candidates; the sweep never blocks readers — payloads are immutable
// and fault back on demand.
func (s *Store) demoteToBudget(t *store.Tree) {
	if s.opt.MemoryBudget <= 0 || t == nil {
		return
	}
	segs := t.AllSegments()
	resident := 0
	for _, seg := range segs {
		resident += seg.MemBytes()
	}
	if resident <= s.opt.MemoryBudget {
		return
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].LastUse() < segs[j].LastUse() })
	for _, seg := range segs {
		if resident <= s.opt.MemoryBudget {
			break
		}
		if freed := seg.Demote(); freed > 0 {
			resident -= freed
			s.demoted.Add(1)
			s.demotedBytes.Add(int64(freed))
		}
	}
}

// recover scans the log, verifies every referenced blob end to end, and
// reconstructs the last complete version. It leaves the log open,
// truncated to the last record it accepted (what it drops is first
// copied to quarantine/), and seeds the writeback state from it. A
// directory in the layout before blobs were inlined is converted: its
// blobs are rewritten into the log, and blobs/ and pack are removed.
func (s *Store) recover() (*Recovered, error) {
	buf, err := os.ReadFile(s.manifestPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	recs, ends, torn := scanManifest(buf)
	if torn {
		s.opt.Logf("persist: manifest has a torn tail; recovering the intact prefix")
	}

	// Replay forward, verifying (and decoding) each newly referenced blob
	// once. The first bad record ends the replay: the state before it is
	// the last complete version.
	var (
		docs    []docRef
		version uint64
		nextSeq uint64
		seal    *record // the seal record the replay ended on, if any
		// inline locates the 'B' records read so far. blobs holds the
		// bytes of every blob that passed full-content verification and
		// decoded the segment that pass produced (claimed by at most one
		// recovered document below).
		inline  = make(map[string]blobLoc)
		blobs   = make(map[string][]byte)
		decoded = make(map[string]*store.Segment)
		legacy  = false
		end     = int64(0)
		dropped = 0
	)
	verify := func(refs []docRef) bool {
		for _, d := range refs {
			if _, ok := blobs[d.Hash]; ok {
				continue
			}
			var (
				blob []byte
				err  error
			)
			l, isInline := inline[d.Hash]
			if isInline {
				blob = buf[l.off : l.off+int64(l.n)]
			} else if blob, err = os.ReadFile(s.legacyBlobPath(d.Hash)); err != nil {
				s.opt.Logf("persist: blob %s missing: %v", short(d.Hash), err)
				return false
			}
			var seg *store.Segment
			if blobHash(blob) != d.Hash {
				err = fmt.Errorf("content hash mismatch")
			} else {
				seg, err = store.DecodeSegment(blob)
			}
			if err != nil {
				s.opt.Logf("persist: blob %s corrupt: %v", short(d.Hash), err)
				if !isInline {
					// Set a corrupt blob file aside before the conversion
					// below removes blobs/.
					if os.Rename(s.legacyBlobPath(d.Hash), filepath.Join(s.dir, "quarantine", d.Hash)) == nil {
						s.quarantined.Add(1)
					}
				}
				return false
			}
			legacy = legacy || !isInline
			blobs[d.Hash], decoded[d.Hash] = blob, seg
		}
		return true
	}
replay:
	for i, r := range recs {
		switch r.kind {
		case 'B':
			inline[r.hash] = blobLoc{off: ends[i] - int64(len(r.blob)), n: len(r.blob)}
			continue // a blob completes no version
		case 'V':
			if !verify(r.adds) {
				dropped = countVersions(recs[i:])
				break replay
			}
			if len(r.dels) > 0 {
				docs = removeSeqs(docs, r.dels)
			}
			docs = append(docs, r.adds...)
			version, nextSeq, seal = r.version, r.nextSeq, nil
		case 'C', 'I', 'S':
			if !verify(r.docs) {
				dropped = countVersions(recs[i:])
				break replay
			}
			docs = append(docs[:0], r.docs...)
			version, nextSeq, seal = r.version, r.nextSeq, nil
			if r.kind != 'C' {
				seal = r
			}
		}
		end = ends[i]
	}
	if dropped > 0 {
		s.opt.Logf("persist: dropped %d manifest record(s) referencing missing or corrupt blobs; recovered to version %d", dropped, version)
	}
	// Blobs past end go with the tail: a later version must append them
	// again rather than reference bytes the truncation removes.
	for h, l := range inline {
		if l.off >= end {
			delete(inline, h)
		}
	}
	if int64(len(buf)) > end {
		if err := s.quarantineTail(buf[end:], end); err != nil {
			return nil, fmt.Errorf("persist: setting aside the log tail at offset %d: %w", end, err)
		}
	}
	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s.log, s.index, s.size = f, inline, end
	if int64(len(buf)) > end {
		if err := f.Truncate(end); err != nil {
			return nil, err
		}
	}
	s.docs, s.version, s.nextSeq = docs, version, nextSeq

	rec := &Recovered{Version: version, NextSeq: nextSeq, Dropped: dropped}
	switch {
	case seal != nil && seal.kind == 'S':
		// A store sealed before the identity scheme: its digest of the
		// fingerprint text cannot be checked against an identity, so the
		// state is trusted exactly as far as an unsealed one is.
		s.opt.Logf("persist: version %d was sealed under the older fingerprint-digest scheme, which cannot be verified; recovering as after an unclean shutdown", version)
	case seal != nil:
		if id, err := store.ParseIdentity(seal.seal); err == nil {
			rec.Sealed, rec.Identity = true, id
		} else {
			s.opt.Logf("persist: unreadable seal at version %d (%v); recovering as after an unclean shutdown", version, err)
		}
	}
	for _, d := range docs {
		// First claimant of a blob gets the segment verification already
		// decoded; further documents sharing the same content (dedup)
		// decode their own, so tree membership stays one segment per
		// document.
		seg := decoded[d.Hash]
		if seg != nil {
			delete(decoded, d.Hash)
		} else if seg, err = store.DecodeSegment(blobs[d.Hash]); err != nil {
			return nil, fmt.Errorf("persist: decoding blob %s: %w", short(d.Hash), err)
		}
		s.arm(seg, d.Hash)
		rec.Docs = append(rec.Docs, RecoveredDoc{Key: d.Key, Seq: d.Seq, Seg: seg})
	}
	if legacy {
		term := &record{kind: 'C'}
		if seal != nil {
			term.kind, term.seal = seal.kind, seal.seal
		}
		if err := s.rewrite(term, func(h string) ([]byte, error) { return blobs[h], nil }); err != nil {
			return nil, fmt.Errorf("persist: moving blobs into the log: %w", err)
		}
	}
	// Every blob the log needs is in it now.
	if err := os.RemoveAll(filepath.Join(s.dir, "blobs")); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(s.dir, "pack")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// Under a memory budget a warm boot must not hold the whole corpus
	// resident: demote oldest-arrival segments until the rest fit.
	if s.opt.MemoryBudget > 0 {
		resident := 0
		for _, d := range rec.Docs {
			resident += d.Seg.MemBytes()
		}
		for _, d := range rec.Docs {
			if resident <= s.opt.MemoryBudget {
				break
			}
			if freed := d.Seg.Demote(); freed > 0 {
				resident -= freed
				s.demoted.Add(1)
				s.demotedBytes.Add(int64(freed))
			}
		}
	}
	return rec, nil
}

// countVersions counts the version-bearing records (everything but
// blobs) in recs.
func countVersions(recs []*record) int {
	n := 0
	for _, r := range recs {
		if r.kind != 'B' {
			n++
		}
	}
	return n
}

// short abbreviates a blob hash for log lines.
func short(h string) string { return h[:min(len(h), 12)] }

// quarantineTail copies a log tail recovery drops to
// quarantine/manifest-<offset> (suffixed .1, .2, ... if that exists), so
// corrupt or torn data is set aside, never deleted.
func (s *Store) quarantineTail(tail []byte, off int64) error {
	base := filepath.Join(s.dir, "quarantine", fmt.Sprintf("manifest-%d", off))
	name := base
	for i := 1; ; i++ {
		f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if os.IsExist(err) {
			name = fmt.Sprintf("%s.%d", base, i)
			continue
		}
		if err != nil {
			return err
		}
		_, err = f.Write(tail)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			s.quarantined.Add(1)
			s.opt.Logf("persist: quarantined the %d-byte log tail dropped at offset %d as %s", len(tail), off, name)
		}
		return err
	}
}
