package replica

import (
	"fmt"
	"sync"
)

// HistoryChecker is the adversarial consistency oracle for replication
// tests (in the spirit of AWDIT-style isolation checking): the leader
// records every version it publishes, each replica records every
// version it verified and served, and Check asserts prefix consistency
// — every replica's observed sequence is strictly increasing, every
// observed (version, identity stamp) pair matches the leader's chain
// exactly, and no replica ever observed a version the leader never
// published. Under those invariants each replica's state history is a
// prefix of the leader's version chain (modulo versions skipped by a
// snapshot re-baseline), fingerprint-identical at every common version.
type HistoryChecker struct {
	mu        sync.Mutex
	leader    map[uint64]string
	leaderMax uint64
	conflict  error
	replicas  map[string][]observation
}

type observation struct {
	version uint64
	sha     string
}

// NewHistoryChecker returns an empty checker.
func NewHistoryChecker() *HistoryChecker {
	return &HistoryChecker{
		leader:   make(map[uint64]string),
		replicas: make(map[string][]observation),
	}
}

// RecordLeader records one published leader version and its identity
// stamp. Re-recording a version with a different stamp marks the leader
// chain itself inconsistent (reported by Check).
func (h *HistoryChecker) RecordLeader(version uint64, sha string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.leader[version]; ok && prev != sha {
		if h.conflict == nil {
			h.conflict = fmt.Errorf("leader chain conflict at v%d: %s then %s", version, prev, sha)
		}
		return
	}
	h.leader[version] = sha
	if version > h.leaderMax {
		h.leaderMax = version
	}
}

// RecordReplica records one version a replica verified and began
// serving, in observation order.
func (h *HistoryChecker) RecordReplica(name string, version uint64, sha string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.replicas[name] = append(h.replicas[name], observation{version: version, sha: sha})
}

// Observer returns an OnVerified hook bound to the named replica.
func (h *HistoryChecker) Observer(name string) func(version uint64, sha string) {
	return func(version uint64, sha string) { h.RecordReplica(name, version, sha) }
}

// Check validates prefix consistency of every recorded replica history
// against the leader chain, returning the first violation found.
func (h *HistoryChecker) Check() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conflict != nil {
		return h.conflict
	}
	for name, obs := range h.replicas {
		var last uint64
		for i, o := range obs {
			if i > 0 && o.version <= last {
				return fmt.Errorf("replica %s went backwards: v%d after v%d", name, o.version, last)
			}
			last = o.version
			if o.version > h.leaderMax {
				return fmt.Errorf("replica %s observed v%d beyond leader head v%d", name, o.version, h.leaderMax)
			}
			want, ok := h.leader[o.version]
			if !ok {
				return fmt.Errorf("replica %s observed v%d the leader never published", name, o.version)
			}
			if want != o.sha {
				return fmt.Errorf("replica %s diverged at v%d: leader %s, replica %s", name, o.version, want, o.sha)
			}
		}
	}
	return nil
}
