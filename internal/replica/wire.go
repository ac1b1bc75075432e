// Package replica implements delta-shipped leader/follower replication
// for multi-node read scaling. A follower subscribes to a leader's
// NDJSON version stream (GET /deltas?since=N&follow=1), applies each
// version's key-based store.Delta locally, and verifies every applied
// version's content identity against the leader's stamp before serving
// it — self-checking replication: a follower can never silently serve a
// state the leader never had. On a mismatch the divergent version is
// quarantined (kept for inspection, never published) and the follower
// resyncs from a full leader snapshot. Followers behind the leader's
// retained-history horizon re-baseline the same way, or bootstrap
// offline from a persist blob store directory (Bootstrap).
//
// The stamp is store.Identity — Σ SHA-256(line) mod 2²⁵⁶ over the lines
// of the KB's Fingerprint() — so both ends maintain it in O(|delta|)
// per version: the leader folds it as it publishes, the follower folds
// it over exactly the keys and entity IDs each delta touches, reading
// the records it replaces from its verified state (a store.Overlay, so
// applying the delta is O(|delta|) as well) and those it leaves from
// the staged step. The stamp detects faults (a record corrupted,
// dropped or misapplied on the way); it does not authenticate the
// leader — whoever can rewrite a record can rewrite its stamp.
package replica

import (
	"qkbfly/internal/kb/store"
)

// Record is one NDJSON line of the /deltas replication stream: a single
// published leader version. Delta carries the full key-based diff from
// the previous version — fact additions, in-place upgrades, removals,
// and entity changes. FingerprintSHA is the hex content identity of the
// leader's KB AT this version (the JSON name predates the identity
// scheme); a follower that chain-applies records from a verified base
// must reproduce it exactly, or the version is quarantined.
//
// A Reset record re-baselines the subscriber: its delta is the full
// diff from an empty KB, applied to store.New() regardless of prior
// state. The leader sends one when the subscriber's since= predates the
// retained history horizon, or when the subscriber asks (snapshot=1)
// after quarantining a divergent version.
type Record struct {
	Version        uint64       `json:"version"`
	FingerprintSHA string       `json:"fingerprint_sha256"`
	Reset          bool         `json:"reset,omitempty"`
	Delta          *store.Delta `json:"delta"`
}

// FingerprintSHA is the stamp scheme both ends of the protocol share:
// the hex content identity of the KB (store.KB.Identity), computed from
// scratch. It is the value the persist manifest's seal record carries,
// so a blob-store bootstrap verifies against the identical value a live
// stream would have stamped.
func FingerprintSHA(kb *store.KB) string { return kb.Identity().Hex() }
