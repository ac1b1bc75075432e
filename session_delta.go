package qkbfly

import (
	"qkbfly/internal/kb/store"
)

// This file is the session's replication surface: the per-version
// DeltaEvent every subscriber receives (session_feed.go is how it gets
// to them), identity-stamped delta replay, and the per-version stamp
// followers verify each applied version against. internal/serve exposes
// it as the /deltas NDJSON stream; internal/replica consumes it.
//
// The stamp is the version's content identity (store.Identity): the sum
// of SHA-256 over the lines of its KB fingerprint, mod 2²⁵⁶. The session
// folds it from each version's delta in O(|delta|) as the version is
// published, so stamping a record costs a hex encoding — no version is
// ever materialized or fingerprinted to stamp it. It is a fault check
// (it catches a record corrupted or misapplied on the way), not a
// defence against an adversary, who could rewrite the stamp along with
// the record.

// DeltaEvent is one published version as subscribers see it, live
// (WatchDeltas, a Feed tail) or replayed (Feed.Replay): the version's
// full key-based diff plus the snapshot it produced, so the consumer
// can evaluate a pattern against the version's tree, or stamp and
// verify its content identity, without racing later ingests.
type DeltaEvent struct {
	Version uint64
	Delta   store.Delta
	Snap    *Snapshot
}

// DeltaRecord is one replayed version of DeltaRecordsSince: the full
// diff stamped with the hex content identity of the version's KB — the
// self-checking unit of the replication protocol. A follower that
// chain-applies records from any verified base and matches every stamp
// holds a KB fingerprint-identical to the leader's at that version.
type DeltaRecord struct {
	Version        uint64
	FingerprintSHA string
	Delta          store.Delta
}

// DeltaRecordsSince returns the identity-stamped deltas of the versions
// after v, oldest first, under the same horizon contract as DeltaSince:
// ok is false when v predates the retained history horizon and the
// consumer must re-baseline from a full snapshot.
func (s *Session) DeltaRecordsSince(v uint64) (recs []DeltaRecord, cur uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	after, cur, ok := s.sinceLocked(v)
	for _, d := range after {
		recs = append(recs, DeltaRecord{Version: d.version, FingerprintSHA: d.content.id.Hex(), Delta: d.delta})
	}
	return recs, cur, ok
}

// FingerprintSHAHex returns the hex content identity of a KB from its
// already-computed fingerprint text (store.TextIdentity) — the value the
// session stamps that KB's version with, and the one qkbflyd seals a
// durable manifest with.
func FingerprintSHAHex(fingerprint string) string {
	return store.TextIdentity(fingerprint).Hex()
}
