// Package persist is the durable, content-addressed segment store behind
// qkbflyd's warm restarts. Sealed leaf segments are serialized once
// (store.EncodeSegment) into immutable blobs named by the SHA-256 of
// their bytes; a single append-only manifest (manifest.go) records, per
// published session version, which blobs are live and at which arrival
// sequences. The split follows the LSST chunk/manifest design: all bulk
// data is immutable and content-addressed, all mutation is a tiny
// fsynced log append.
//
// Durability stays off the ingest hot path: Publish only enqueues; a
// background writeback goroutine encodes blobs, fsyncs them, appends the
// manifest record, and then sweeps cold segments down to the memory
// budget (Polynesia-style background writeback over immutable
// snapshots). Crash consistency comes from ordering alone — a blob is
// fully durable before any record references it, and each record is
// fsynced before the next is written — so after any crash the manifest's
// intact prefix describes a complete, loadable version.
//
// Only leaf (per-document) blobs are ever written. Partial merges
// rehydrate by re-merging their children (store.MergeSegments arms every
// merged segment with a self-healing loader), so the blob store stays
// proportional to the corpus, not to the merge tree.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"qkbfly/internal/kb/store"
)

// Options configure a Store.
type Options struct {
	// MemoryBudget is the resident-payload byte budget across every
	// segment reachable from the latest published tree. After each
	// writeback the least-recently-used segments demote to disk until the
	// total fits. 0 disables demotion (everything stays resident).
	MemoryBudget int
	// CheckpointEvery inserts a full-state checkpoint record after this
	// many version records, bounding recovery replay. Default 256.
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

// Store is a durable segment store rooted at one data directory:
//
//	<dir>/blobs/<sha256>     content-addressed encoded segments
//	<dir>/manifest.log       append-only version/checkpoint/seal records
//	<dir>/quarantine/        corrupt blobs moved aside during recovery
//
// One Store owns its directory exclusively (qkbflyd opens exactly one).
type Store struct {
	dir      string
	opt      Options
	manifest *os.File

	jobs chan job
	wg   sync.WaitGroup

	// Writeback-goroutine state (no locking needed): the live document
	// mirror the next checkpoint snapshots, and the version record count
	// since the last checkpoint.
	docs       []docRef
	version    uint64
	nextSeq    uint64
	sinceCheck int

	// latestTree is the most recent published tree — Counters reads it
	// for the resident-bytes gauge while the writeback goroutine updates
	// it, hence the lock.
	treeMu     sync.Mutex
	latestTree *store.Tree

	// segHash maps a durable segment to its blob hash, so checkpoint
	// records can name restored segments' blobs.
	hashMu  sync.Mutex
	segHash map[*store.Segment]string

	// pack is the recovery-time blob cache loaded from the pack file
	// (nil outside recovery; recover() drops it when done). It is only
	// touched before the writeback goroutine starts, so no locking.
	pack map[string][]byte

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
	recoveredVer   atomic.Int64
	recoveredDocs  atomic.Int64
	droppedRecords atomic.Int64
	packBytes      atomic.Int64
	packHits       atomic.Int64
}

// Open opens (or initializes) a data directory, runs recovery, and
// starts the writeback goroutine. The returned Recovered describes the
// last complete persisted version (empty for a fresh directory); wire it
// into qkbfly.Restore to warm-start a session, and pass the Store as the
// session's Persistence to keep persisting.
func Open(dir string, opt Options) (*Store, *Recovered, error) {
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 256
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	for _, sub := range []string{"", "blobs", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, err
		}
	}
	s := &Store{dir: dir, opt: opt, jobs: make(chan job, queueDepth)}

	rec, goodEnd, err := s.recover()
	if err != nil {
		return nil, nil, err
	}

	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Truncate away the torn tail (and any records recovery rejected) so
	// future appends extend a clean prefix.
	if fi, err := f.Stat(); err == nil && fi.Size() > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	s.manifest = f

	// Seed the writeback mirror from the recovered state.
	s.version = rec.Version
	s.nextSeq = rec.NextSeq
	for _, d := range rec.Docs {
		s.docs = append(s.docs, docRef{Key: d.Key, Seq: d.Seq, Hash: s.hashOf(d.Seg)})
	}
	s.recoveredVer.Store(int64(rec.Version))
	s.recoveredDocs.Store(int64(len(rec.Docs)))
	s.droppedRecords.Store(int64(rec.Dropped))

	s.wg.Add(1)
	go s.writeback()
	return s, rec, nil
}

func (s *Store) manifestPath() string     { return filepath.Join(s.dir, "manifest.log") }
func (s *Store) blobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }
func (s *Store) quarPath(h string) string { return filepath.Join(s.dir, "quarantine", h) }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// hashOf retrieves the blob hash recovery stamped on a restored segment.
func (s *Store) hashOf(seg *store.Segment) string {
	s.hashMu.Lock()
	defer s.hashMu.Unlock()
	return s.segHash[seg]
}

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

// Seal flushes and appends a seal record carrying the current version's
// content identity, making the next boot a verified warm restart. Call
// it at graceful shutdown, after the session stops publishing.
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
	return s.manifest.Close()
}

// Counters returns a snapshot of the store's activity counters, suitable
// for /stats. resident_bytes is a point-in-time gauge over the latest
// published tree.
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
		"recovered_version": s.recoveredVer.Load(),
		"recovered_docs":    s.recoveredDocs.Load(),
		"dropped_records":   s.droppedRecords.Load(),
		"pack_bytes":        s.packBytes.Load(),
		"pack_hits":         s.packHits.Load(),
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
			s.appendRecord(&record{kind: 'I', version: s.version, nextSeq: s.nextSeq,
				docs: append([]docRef(nil), s.docs...), seal: j.seal.Hex()})
			// A seal marks a clean shutdown: rewrite the pack so the next
			// boot recovers the whole corpus in one sequential read.
			s.writePack(s.docs)
			close(j.done)
		case j.done != nil:
			close(j.done) // flush barrier: everything before it is durable
		default:
			s.writeVersion(j)
		}
	}
}

// writeVersion makes one published version durable.
func (s *Store) writeVersion(j job) {
	rec := &record{kind: 'V', version: j.version, nextSeq: j.nextSeq, dels: j.dels}
	for _, a := range j.adds {
		h, err := s.writeBlob(a.seg)
		if err != nil {
			// Disk trouble mid-writeback: warn and stop persisting this
			// version (recovery will land on the previous one). Subsequent
			// versions would be inconsistent without this one's blobs, so
			// this is deliberately loud.
			s.opt.Logf("persist: writing blob for %q: %v (version %d not persisted)", a.key, err, j.version)
			return
		}
		rec.adds = append(rec.adds, docRef{Key: a.key, Seq: a.seq, Hash: h})
		// The blob is durable and verified: the segment may now demote.
		s.armLoader(a.seg, h)
	}
	if err := s.appendRecord(rec); err != nil {
		s.opt.Logf("persist: appending manifest record for version %d: %v", j.version, err)
		return
	}
	// Update the live mirror: apply dels, then adds (matching session
	// order is irrelevant — seqs are unique).
	if len(j.dels) > 0 {
		gone := make(map[uint64]bool, len(j.dels))
		for _, d := range j.dels {
			gone[d] = true
		}
		kept := s.docs[:0]
		for _, d := range s.docs {
			if !gone[d.Seq] {
				kept = append(kept, d)
			}
		}
		s.docs = kept
	}
	s.docs = append(s.docs, rec.adds...)
	s.version = j.version
	s.nextSeq = j.nextSeq
	s.setTree(j.tree)

	s.sinceCheck++
	if s.sinceCheck >= s.opt.CheckpointEvery {
		if err := s.appendRecord(&record{kind: 'C', version: s.version, nextSeq: s.nextSeq,
			docs: append([]docRef(nil), s.docs...)}); err == nil {
			s.checkpoints.Add(1)
			s.sinceCheck = 0
		}
	}
	s.demoteToBudget(j.tree)
}

// appendRecord frames, appends and fsyncs one manifest record.
func (s *Store) appendRecord(rec *record) error {
	if _, err := s.manifest.Write(encodeRecord(rec)); err != nil {
		return err
	}
	if err := s.manifest.Sync(); err != nil {
		return err
	}
	s.records.Add(1)
	return nil
}

// writeBlob persists one leaf segment as a content-addressed blob and
// returns its hash. Re-publishing identical content (the common case for
// re-ingested documents) is a hit on the existing blob: content
// addressing is the dedup.
func (s *Store) writeBlob(seg *store.Segment) (string, error) {
	blob := store.EncodeSegment(seg)
	sum := sha256.Sum256(blob)
	h := hex.EncodeToString(sum[:])
	path := s.blobPath(h)
	if _, err := os.Stat(path); err == nil {
		s.blobsReused.Add(1)
		return h, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-blob-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return "", err
	}
	s.blobsWritten.Add(1)
	s.blobBytes.Add(int64(len(blob)))
	return h, nil
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

// armLoader attaches the read-back loader to a now-durable segment and
// registers its hash.
func (s *Store) armLoader(seg *store.Segment, h string) {
	s.hashMu.Lock()
	s.segHash[seg] = h
	s.hashMu.Unlock()
	seg.AttachLoader(s.loader(h))
}

// loader returns the fault-in function for a blob: read, verify, decode.
// A corrupt blob is quarantined with a warning and reported as an error —
// for a leaf there is no rebuilding the payload from a dead document, so
// the fault escalates (store.Segment panics), but the blob itself is
// preserved aside for inspection rather than silently served.
func (s *Store) loader(h string) func() (*store.Segment, error) {
	return func() (*store.Segment, error) {
		blob, err := os.ReadFile(s.blobPath(h))
		if err != nil {
			return nil, err
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != h {
			s.quarantine(h, "content hash mismatch")
			return nil, fmt.Errorf("persist: blob %s corrupt (content hash mismatch)", h[:12])
		}
		seg, err := store.DecodeSegment(blob)
		if err != nil {
			s.quarantine(h, err.Error())
			return nil, fmt.Errorf("persist: blob %s corrupt: %w", h[:12], err)
		}
		s.blobsLoaded.Add(1)
		s.loadBytes.Add(int64(len(blob)))
		return seg, nil
	}
}

// quarantine moves a corrupt blob aside (never deletes it) and warns.
func (s *Store) quarantine(h, reason string) {
	if err := os.Rename(s.blobPath(h), s.quarPath(h)); err == nil {
		s.quarantined.Add(1)
	}
	s.opt.Logf("persist: quarantined corrupt blob %s: %s", h[:12], reason)
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

// recover scans the manifest, verifies every referenced blob's header,
// and reconstructs the last complete version. goodEnd is the manifest
// offset after the last record recovery accepted; everything past it is
// truncated by Open.
func (s *Store) recover() (*Recovered, int64, error) {
	s.segHash = make(map[*store.Segment]string)
	s.pack = s.loadPack()
	defer func() { s.pack = nil }() // decoded payloads copy out of it
	rec := &Recovered{}
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		return rec, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	recs, ends, torn, err := scanManifest(f)
	f.Close()
	if err != nil {
		return nil, 0, err
	}
	if torn {
		s.opt.Logf("persist: manifest has a torn tail; recovering the intact prefix")
	}

	// Replay forward, verifying (and decoding) each newly-referenced blob
	// once. The first bad record ends the replay: the state before it is
	// the last complete version.
	var (
		docs    []docRef
		version uint64
		nextSeq uint64
		seal    *record // the seal record the replay ended on, if any
		// verified marks blobs that passed full-content verification;
		// decoded holds the resident segment the verification pass produced
		// (claimed by at most one recovered document below).
		verified = make(map[string]bool)
		decoded  = make(map[string]*store.Segment)
		end      = int64(0)
		dropped  = 0
	)
	verify := func(refs []docRef) bool {
		for _, d := range refs {
			if verified[d.Hash] {
				continue
			}
			seg, ok := s.verifyBlob(d.Hash)
			if !ok {
				return false
			}
			verified[d.Hash] = true
			decoded[d.Hash] = seg
		}
		return true
	}
replay:
	for i, r := range recs {
		switch r.kind {
		case 'V':
			if !verify(r.adds) {
				dropped = len(recs) - i
				break replay
			}
			if len(r.dels) > 0 {
				gone := make(map[uint64]bool, len(r.dels))
				for _, d := range r.dels {
					gone[d] = true
				}
				kept := docs[:0]
				for _, d := range docs {
					if !gone[d.Seq] {
						kept = append(kept, d)
					}
				}
				docs = kept
			}
			docs = append(docs, r.adds...)
			version, nextSeq, seal = r.version, r.nextSeq, nil
		case 'C', 'I', 'S':
			if !verify(r.docs) {
				dropped = len(recs) - i
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

	rec.Version, rec.NextSeq, rec.Dropped = version, nextSeq, dropped
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
		// decoded; further documents sharing the same content (dedup) get
		// their own demoted segment, so tree membership stays one segment
		// per document.
		seg := decoded[d.Hash]
		if seg != nil {
			delete(decoded, d.Hash)
			seg.AttachLoader(s.loader(d.Hash))
		} else {
			var err error
			if seg, err = s.openDemoted(d.Hash); err != nil {
				// The blob verified moments ago; losing it now is a racing
				// disk failure — surface loudly.
				return nil, 0, fmt.Errorf("persist: reopening blob %s: %w", d.Hash[:12], err)
			}
		}
		s.segHash[seg] = d.Hash
		rec.Docs = append(rec.Docs, RecoveredDoc{Key: d.Key, Seq: d.Seq, Seg: seg})
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
	// Open truncates the manifest to end: torn tails and dropped records
	// are discarded so future appends extend a clean prefix.
	return rec, end, nil
}

// verifyBlob checks, at recovery time, that a referenced blob exists,
// matches its content address end to end, and decodes cleanly — and
// returns the decoded resident segment, since the expensive part (the
// read and the hash) is already paid. Full verification here is what
// turns a rotted blob into a boot-time warning and a clean fall-back to
// the previous version, instead of a fault-time panic hours later when
// a demoted segment is first touched. Corrupt blobs are quarantined,
// never deleted.
func (s *Store) verifyBlob(h string) (*store.Segment, bool) {
	// A sealed shutdown left a pack: one sequential read already holds
	// this blob's bytes. The slice is verified against the content
	// address exactly like a file read would be; any damage falls back
	// to the authoritative per-blob file below.
	if b, ok := s.pack[h]; ok {
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) == h {
			if seg, err := store.DecodeSegment(b); err == nil {
				s.packHits.Add(1)
				return seg, true
			}
		}
		s.opt.Logf("persist: pack entry %s corrupt; falling back to blob file", h[:12])
	}
	blob, err := os.ReadFile(s.blobPath(h))
	if err != nil {
		s.opt.Logf("persist: blob %s missing: %v", h[:12], err)
		return nil, false
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != h {
		s.quarantine(h, "content hash mismatch")
		return nil, false
	}
	seg, err := store.DecodeSegment(blob)
	if err != nil {
		s.quarantine(h, err.Error())
		return nil, false
	}
	return seg, true
}

// openDemoted constructs a demoted segment straight from a blob's header
// — metadata only, no payload read — with the fault-in loader attached.
func (s *Store) openDemoted(h string) (*store.Segment, error) {
	f, err := os.Open(s.blobPath(h))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, store.SegmentInfoPrefix)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	info, err := store.DecodeSegmentInfo(buf[:n])
	if err != nil {
		return nil, err
	}
	return store.NewDemotedSegment(info.ID, info.Docs, info.BuildTime, info.Facts, info.Ents, s.loader(h)), nil
}
