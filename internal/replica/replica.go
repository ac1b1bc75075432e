package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/stats"
)

// Counter names a Follower accounts under (exported so the serving
// layer folds them into /stats alongside its own).
const (
	CounterRecords       = "replica_records"       // stream records decoded
	CounterApplies       = "replica_applies"       // deltas staged against the verified state
	CounterVerifications = "replica_verifications" // identity stamps checked
	CounterVerified      = "replica_verified"      // stamps that matched (versions published)
	CounterDuplicates    = "replica_duplicates"    // records at or below the verified version, skipped
	CounterGaps          = "replica_gaps"          // out-of-order records forcing reconnect-with-resume
	CounterTruncations   = "replica_truncations"   // streams cut mid-record
	CounterReconnects    = "replica_reconnects"    // stream (re)connect attempts
	CounterRetries       = "replica_retries"       // failed connects that backed off
	CounterQuarantines   = "replica_quarantines"   // divergent versions quarantined
	CounterResyncs       = "replica_resyncs"       // reconnects that demanded a full snapshot
	CounterResets        = "replica_resets"        // reset records applied (re-baselines)
)

// DialFunc opens one replication stream. The default dials HTTP; tests
// substitute fault-injecting transports.
type DialFunc func(ctx context.Context, rawURL string) (io.ReadCloser, error)

// Options configure a Follower.
type Options struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Leader string
	// Since resumes the stream after this version (a bootstrap sets it
	// to the restored version). Zero starts from the beginning — the
	// leader re-baselines with a reset record if that predates its
	// retained history.
	Since uint64
	// Dial overrides the transport entirely (fault injection in tests).
	// When nil the stream is a GET through http.DefaultClient, which has
	// no overall timeout: the stream is long-lived, and per-record
	// liveness is ReadTimeout's job.
	Dial DialFunc
	// BackoffBase/BackoffMax bound the jittered exponential reconnect
	// backoff. Defaults 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ReadTimeout is the per-record liveness watchdog: if no record
	// arrives for this long the stream is torn down and redialed.
	// Default 45s (leaders heartbeat by closing idle streams at drain;
	// an idle leader simply has nothing to send). Zero uses the default.
	ReadTimeout time.Duration
	// RetryBudget is the number of consecutive failed connect attempts
	// after which the follower reports itself degraded in Status (it
	// keeps serving reads at the last verified version and keeps
	// retrying at BackoffMax). Zero means never degrade.
	RetryBudget int
	// Logf receives connection, quarantine, and resync events.
	// Default log.Printf.
	Logf func(format string, args ...any)
	// Counters receives replication accounting. A fresh set is created
	// when nil (Counters() returns it either way).
	Counters *stats.CounterSet
	// OnVerified is invoked after every identity-verified publish, with
	// the version's hex stamp — the history-checker hook (see
	// HistoryChecker.RecordReplica).
	OnVerified func(version uint64, fingerprintSHA string)
}

// Quarantine is one divergent version the follower refused to serve:
// the delta staged cleanly but the content identity it folds to did not
// match the leader's stamp.
type Quarantine struct {
	Version   uint64 `json:"version"`
	LeaderSHA string `json:"leader_sha256"`
	LocalSHA  string `json:"local_sha256"`
	Added     int    `json:"added"`
	Upgraded  int    `json:"upgraded"`
	Removed   int    `json:"removed"`
	UnixMS    int64  `json:"unix_ms"`
}

// Status is the follower's health summary, surfaced through /healthz
// and /stats on a following qkbflyd. Facts and Entities count the
// verified version's KB without materializing it.
type Status struct {
	Role               string           `json:"role"`
	Leader             string           `json:"leader"`
	Version            uint64           `json:"version"`
	FingerprintSHA     string           `json:"fingerprint_sha256"`
	Facts              int              `json:"facts"`
	Entities           int              `json:"entities"`
	LeaderHead         uint64           `json:"leader_head"`
	LagVersions        uint64           `json:"lag_versions"`
	LastVerifiedUnixMS int64            `json:"last_verified_unix_ms"`
	LagMS              int64            `json:"lag_ms"`
	Degraded           bool             `json:"degraded"`
	Quarantined        []Quarantine     `json:"quarantined,omitempty"`
	Counters           map[string]int64 `json:"counters"`
}

// maxQuarantineKept bounds the quarantine log in Status.
const maxQuarantineKept = 8

// Follower replicates a leader's version chain. Reads (KB, Version,
// Status) are safe at any time and always observe the last
// identity-verified version — never a partially applied or divergent
// one.
//
// The verified state is a store.Overlay: the last materialized KB plus
// the records every version since changed. Each record's delta is staged
// against it and committed only if the folded identity matches the
// leader's stamp, so following costs O(|delta|) per version; the flat KB
// is built by the first KB call after a version, and becomes the
// overlay's new base.
type Follower struct {
	opt      Options
	counters *stats.CounterSet

	// kbMu serializes the overlay: applying a record (stage, verify,
	// commit) and materializing for KB. It is taken before mu.
	kbMu sync.Mutex
	ov   *store.Overlay
	flat *store.KB // ov flattened at the verified version; nil until read

	mu           sync.Mutex
	version      uint64
	id           store.Identity // the verified version's content identity
	facts        int
	entities     int
	leaderHead   uint64
	lastVerified time.Time
	degraded     bool
	quarantined  []Quarantine
}

// New returns a Follower that will replicate from opt.Leader once Run
// is called. It starts empty at version opt.Since; Seed installs a
// bootstrapped base first.
func New(opt Options) *Follower {
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.ReadTimeout <= 0 {
		opt.ReadTimeout = 45 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	c := opt.Counters
	if c == nil {
		c = stats.NewCounterSet()
	}
	empty := store.New()
	return &Follower{
		opt:      opt,
		counters: c,
		ov:       store.NewOverlay(empty),
		flat:     empty,
		version:  opt.Since,
	}
}

// Seed installs a verified base state and its content identity —
// typically the result of Bootstrap from a persist blob store — so the
// stream resumes from version instead of replaying or re-baselining.
// Call before Run. The follower reads kb from then on and never
// modifies it.
func (f *Follower) Seed(kb *store.KB, version uint64, id store.Identity) {
	f.kbMu.Lock()
	defer f.kbMu.Unlock()
	f.ov, f.flat = store.NewOverlay(kb), kb
	f.mu.Lock()
	defer f.mu.Unlock()
	f.setVerifiedLocked(version, id)
}

// KB returns the last identity-verified KB and its version. The first
// call after a version materializes it (O(window)) under kbMu, so the
// next apply and concurrent KB calls wait for it; later calls at the
// same version return the same KB. Callers must not modify it.
func (f *Follower) KB() (*store.KB, uint64) {
	f.kbMu.Lock()
	defer f.kbMu.Unlock()
	if f.flat == nil {
		f.flat = f.ov.Flatten()
	}
	return f.flat, f.Version()
}

// Version returns the last identity-verified version, without
// materializing its KB.
func (f *Follower) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// verified returns the last verified version and its identity.
func (f *Follower) verified() (uint64, store.Identity) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version, f.id
}

// Counters returns the follower's counter set (shared with Options
// .Counters when one was supplied).
func (f *Follower) Counters() *stats.CounterSet { return f.counters }

// Status reports role, versions, lag, and quarantine state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Role:           "follower",
		Leader:         f.opt.Leader,
		Version:        f.version,
		FingerprintSHA: f.id.Hex(),
		Facts:          f.facts,
		Entities:       f.entities,
		LeaderHead:     f.leaderHead,
		Degraded:       f.degraded,
		Counters:       f.counters.Snapshot(),
	}
	if f.leaderHead > f.version {
		st.LagVersions = f.leaderHead - f.version
	}
	if !f.lastVerified.IsZero() {
		st.LastVerifiedUnixMS = f.lastVerified.UnixMilli()
		st.LagMS = time.Since(f.lastVerified).Milliseconds()
	}
	st.Quarantined = append(st.Quarantined, f.quarantined...)
	return st
}

// Run replicates until ctx is cancelled. It never returns early: every
// stream failure reconnects with jittered exponential backoff, resuming
// from the last verified version (or demanding a full snapshot after a
// quarantine). The error is always ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	resync := false
	failures := 0
	for ctx.Err() == nil {
		f.counters.Add(CounterReconnects, 1)
		if resync {
			f.counters.Add(CounterResyncs, 1)
		}
		rc, err := f.dial(ctx, f.Version(), resync)
		if err == nil {
			failures = 0
			// consume reports whether its last failure demands a full
			// snapshot. Dropping the demand after an interrupted resync is
			// safe: replaying the divergent delta just quarantines again
			// and re-demands.
			resync, err = f.consume(ctx, rc)
			if err != nil && ctx.Err() == nil {
				f.opt.Logf("replica: stream from %s failed at v%d: %v", f.opt.Leader, f.Version(), err)
			}
		} else if ctx.Err() == nil {
			failures++
			f.counters.Add(CounterRetries, 1)
			if f.opt.RetryBudget > 0 && failures >= f.opt.RetryBudget {
				f.setDegraded(true)
			}
			f.opt.Logf("replica: connect to %s failed (attempt %d): %v", f.opt.Leader, failures, err)
		}
		f.sleepBackoff(ctx, failures)
	}
	return ctx.Err()
}

func (f *Follower) setDegraded(v bool) {
	f.mu.Lock()
	f.degraded = v
	f.mu.Unlock()
}

// dial opens the stream at since, optionally demanding a full snapshot.
func (f *Follower) dial(ctx context.Context, since uint64, snapshot bool) (io.ReadCloser, error) {
	q := url.Values{}
	q.Set("since", strconv.FormatUint(since, 10))
	q.Set("follow", "1")
	if snapshot {
		q.Set("snapshot", "1")
	}
	rawURL := f.opt.Leader + "/deltas?" + q.Encode()
	if f.opt.Dial != nil {
		return f.opt.Dial(ctx, rawURL)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("leader %s: %s", f.opt.Leader, resp.Status)
	}
	return resp.Body, nil
}

// errTruncated marks a stream cut mid-record.
var errTruncated = errors.New("stream truncated mid-record")

// consume drains one stream, applying and verifying each record. It
// returns resync=true when an identity mismatch demands the next dial
// fetch a full snapshot. A nil error means the leader closed the stream
// cleanly (drain, or this subscriber lagged and was dropped) — the
// caller reconnects either way.
func (f *Follower) consume(ctx context.Context, rc io.ReadCloser) (resync bool, err error) {
	defer rc.Close()
	// Per-record liveness: a stream that goes silent longer than
	// ReadTimeout is closed under the reader, failing the pending read.
	watchdog := time.AfterFunc(f.opt.ReadTimeout, func() { rc.Close() })
	defer watchdog.Stop()
	stop := context.AfterFunc(ctx, func() { rc.Close() })
	defer stop()

	br := bufio.NewReader(rc)
	for {
		line, rerr := br.ReadBytes('\n')
		watchdog.Reset(f.opt.ReadTimeout)
		if rerr != nil {
			if rerr == io.EOF && len(line) == 0 {
				return false, nil // clean end of stream
			}
			if len(line) > 0 {
				f.counters.Add(CounterTruncations, 1)
				return false, errTruncated
			}
			return false, rerr
		}
		if len(line) <= 1 {
			continue // keepalive blank line
		}
		var rec Record
		if derr := json.Unmarshal(line, &rec); derr != nil {
			f.counters.Add(CounterTruncations, 1)
			return false, fmt.Errorf("undecodable record: %w", derr)
		}
		f.counters.Add(CounterRecords, 1)
		f.noteLeaderHead(rec.Version)
		if demand, aerr := f.applyRecord(&rec); aerr != nil {
			return demand, aerr
		}
	}
}

// noteLeaderHead advances the observed leader head (lag accounting).
func (f *Follower) noteLeaderHead(v uint64) {
	f.mu.Lock()
	if v > f.leaderHead {
		f.leaderHead = v
	}
	f.mu.Unlock()
}

// applyRecord applies one stream record against the last verified
// state. resync=true (with an error) demands a snapshot on reconnect.
func (f *Follower) applyRecord(rec *Record) (resync bool, err error) {
	if rec.Delta == nil {
		return false, fmt.Errorf("record v%d carries no delta", rec.Version)
	}
	published, sha, resync, err := f.verify(rec)
	if published && f.opt.OnVerified != nil {
		f.opt.OnVerified(rec.Version, sha)
	}
	return resync, err
}

// verify stages rec's delta against the verified overlay, checks the
// folded identity against the leader's stamp, and commits and publishes
// the version only if they match; on a mismatch the overlay is left as
// it was. It reports whether the version was published, and its stamp.
func (f *Follower) verify(rec *Record) (published bool, sha string, resync bool, err error) {
	f.kbMu.Lock()
	defer f.kbMu.Unlock()
	baseVer, baseID := f.verified()
	if rec.Version <= baseVer {
		// At or below the verified version — a duplicate delta, or an
		// equal-version snapshot, which is content-identical to the
		// verified local state: re-publishing it would duplicate the
		// observation in the replica's version history.
		f.counters.Add(CounterDuplicates, 1)
		return false, "", false, nil
	}
	ov := f.ov
	if rec.Reset {
		// Re-baseline: the delta is the full diff from empty, valid
		// regardless of local state — this is how a quarantined or
		// horizon-lapsed follower recovers.
		ov, baseID = store.NewOverlay(store.New()), store.Identity{}
	} else if rec.Version != baseVer+1 {
		// Out-of-order delivery: a delta only composes onto exactly the
		// version it was diffed against. Resume from the verified
		// version.
		f.counters.Add(CounterGaps, 1)
		return false, "", false, fmt.Errorf("gap: got v%d, have v%d", rec.Version, baseVer)
	}
	// Verification follows the delta, not the KB: the identity folds
	// over the records the delta names, read from the verified state.
	step := ov.Stage(rec.Delta)
	id := step.Identity(baseID)
	f.counters.Add(CounterApplies, 1)
	f.counters.Add(CounterVerifications, 1)
	if sha = id.Hex(); sha != rec.FingerprintSHA {
		// A divergent version means the wire is corrupting records:
		// quarantine it and re-baseline from a snapshot.
		f.quarantine(rec, sha)
		return false, "", true, fmt.Errorf("v%d identity mismatch after apply", rec.Version)
	}
	if rec.Reset {
		f.counters.Add(CounterResets, 1)
	}
	ov.Commit(step)
	f.ov, f.flat = ov, nil
	f.mu.Lock()
	f.setVerifiedLocked(rec.Version, id)
	f.degraded = false
	f.mu.Unlock()
	f.counters.Add(CounterVerified, 1)
	return true, sha, false, nil
}

// setVerifiedLocked installs version as the served state, with the
// overlay's counts. Callers hold kbMu and mu.
func (f *Follower) setVerifiedLocked(version uint64, id store.Identity) {
	f.version = version
	f.id = id
	f.facts, f.entities = f.ov.Len(), f.ov.EntityCount()
	f.lastVerified = time.Now()
	if version > f.leaderHead {
		f.leaderHead = version
	}
}

// quarantine records a divergent version — staged but never committed —
// and logs the diff summary for the operator.
func (f *Follower) quarantine(rec *Record, localSHA string) {
	q := Quarantine{
		Version:   rec.Version,
		LeaderSHA: rec.FingerprintSHA,
		LocalSHA:  localSHA,
		Added:     len(rec.Delta.Added),
		Upgraded:  len(rec.Delta.Upgraded),
		Removed:   len(rec.Delta.Removed),
		UnixMS:    time.Now().UnixMilli(),
	}
	f.mu.Lock()
	f.quarantined = append(f.quarantined, q)
	if len(f.quarantined) > maxQuarantineKept {
		f.quarantined = f.quarantined[len(f.quarantined)-maxQuarantineKept:]
	}
	f.mu.Unlock()
	f.counters.Add(CounterQuarantines, 1)
	f.opt.Logf("replica: QUARANTINE v%d from %s: leader sha %.12s… vs local %.12s… (delta +%d ~%d -%d facts, +%d ~%d -%d entities); resyncing from snapshot",
		rec.Version, f.opt.Leader, rec.FingerprintSHA, localSHA,
		q.Added, q.Upgraded, q.Removed,
		len(rec.Delta.AddedEntities), len(rec.Delta.ChangedEntities), len(rec.Delta.RemovedEntities))
}

// sleepBackoff waits the jittered exponential backoff for the given
// consecutive-failure count (0 → base delay: even a cleanly closed
// stream should not hot-loop reconnects).
func (f *Follower) sleepBackoff(ctx context.Context, failures int) {
	d := f.opt.BackoffBase
	for i := 0; i < failures && d < f.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > f.opt.BackoffMax {
		d = f.opt.BackoffMax
	}
	// Full jitter on the upper half keeps a restarted fleet from
	// thundering back in lockstep.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
