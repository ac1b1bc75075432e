package qkbfly

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"qkbfly/internal/kb/store"
)

// This file is the session's replication surface: the per-version
// DeltaEvent every subscriber receives (session_feed.go is how it gets
// to them), fingerprint-stamped delta replay, and the per-version
// fingerprint SHAs followers verify each applied version against.
// internal/serve exposes it as the /deltas NDJSON stream;
// internal/replica consumes it.

// DeltaEvent is one published version as subscribers see it, live
// (WatchDeltas, a Feed tail) or replayed (Feed.Replay): the version's
// full key-based diff plus the snapshot it produced, so the consumer
// can evaluate a pattern against the version's tree, or stamp and
// verify its KB fingerprint, without racing later ingests.
type DeltaEvent struct {
	Version uint64
	Delta   store.Delta
	Snap    *Snapshot
}

// DeltaRecord is one replayed version of DeltaRecordsSince: the full
// diff stamped with the hex SHA-256 of the version's KB fingerprint —
// the self-checking unit of the replication protocol. A follower that
// chain-applies records from any verified base and matches every stamp
// holds a KB fingerprint-identical to the leader's at that version.
type DeltaRecord struct {
	Version        uint64
	FingerprintSHA string
	Delta          store.Delta
}

// DeltaRecordsSince returns the fingerprint-stamped deltas of the
// versions after v, oldest first, under the same horizon contract as
// DeltaSince: ok is false when v predates the retained history horizon
// and the consumer must re-baseline from a full snapshot. Stamps are
// computed outside the session lock, once per version ever (see
// FingerprintSHA) — not per call or per subscriber.
func (s *Session) DeltaRecordsSince(v uint64) (recs []DeltaRecord, cur uint64, ok bool) {
	s.mu.Lock()
	after, cur, ok := s.sinceLocked(v)
	s.mu.Unlock()
	for _, d := range after {
		recs = append(recs, DeltaRecord{Version: d.version, FingerprintSHA: d.stamp.of(d.tree), Delta: d.delta})
	}
	return recs, cur, ok
}

// FingerprintSHA returns the hex SHA-256 of the snapshot's KB
// fingerprint. It accepts any snapshot of this session, current or
// replayed; the digest is computed once per version and shared by every
// handle on that version, so all replication streams of one version cost
// a single materialization.
func (s *Session) FingerprintSHA(snap *Snapshot) string {
	return snap.stamp.of(snap.tree)
}

// shaStamp caches one version's fingerprint SHA. The version's snapshot
// handles and its history entry share one, so it lives exactly as long
// as something can still ask for that version.
type shaStamp struct {
	once sync.Once
	sha  string
}

// of returns the digest of tree, which must be the stamp's version. It
// materializes fresh instead of through Snapshot.KB(): the digest is 64
// bytes, while a snapshot's cached KB would stay pinned to a possibly
// historical version.
func (c *shaStamp) of(tree *store.Tree) string {
	c.once.Do(func() { c.sha = fingerprintSHAOf(tree) })
	return c.sha
}

// fingerprintSHAOf digests a merge tree's materialized KB fingerprint.
func fingerprintSHAOf(tree *store.Tree) string {
	sum := sha256.Sum256([]byte(tree.Materialize().Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// FingerprintSHAHex digests an already-computed KB fingerprint string
// the same way the session stamps delta records — the follower side of
// the verification contract (internal/replica), and the scheme qkbflyd
// seals durable manifests with.
func FingerprintSHAHex(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:])
}
