package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"qkbfly/internal/query"
	"qkbfly/internal/replica"
)

// Follower read path: when a daemon runs with -follow, HandlerOptions
// .Replica replaces the Session as the source of truth for /facts,
// /query and /session. Reads always come from the follower's last
// identity-verified KB — never a partially applied version — and
// clients that need read-your-writes after posting to the leader pin
// ?min_version=N: a replica still behind N answers 412 Precondition
// Failed instead of silently serving stale data, and the client retries
// or falls back to the leader.

// checkMinVersion enforces a client's pinned floor against the version
// actually being served; false means the 412 was already written.
func checkMinVersion(w http.ResponseWriter, serving, min uint64) bool {
	if serving >= min {
		return true
	}
	w.Header().Set("X-QKBfly-Version", strconv.FormatUint(serving, 10))
	http.Error(w, fmt.Sprintf("serving version %d is behind pinned min_version %d", serving, min),
		http.StatusPreconditionFailed)
	return false
}

// handleFactsReplica is /facts on a follower. A follower keeps no
// version history (it serves exactly one verified version), so every
// since= behind the current version behaves like the leader's
// horizon-miss contract: a reset line, then a full dump at the served
// version. follow= is not supported — follow the leader's stream.
func handleFactsReplica(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("follow") != "" {
		http.Error(w, "followers do not stream /facts; follow=1 against the leader", http.StatusBadRequest)
		return
	}
	since, tau, min, ok := factsParams(w, r)
	if !ok {
		return
	}
	cur := opt.Replica.Version()
	if !checkMinVersion(w, cur, min) {
		return
	}
	if since >= cur {
		startStream(w, cur) // caller is current; nothing newer here
		return
	}
	// A version may have landed since the check: dump that one. A write
	// error only ends the stream.
	kb, cur := opt.Replica.KB()
	_ = writeFactDump(startStream(w, cur), kb, cur, tau)
}

// handleQueryReplica is /query on a follower: the pattern is evaluated
// directly over the verified KB. Standing queries (since=/follow=) need
// the leader's version history and are rejected here.
func handleQueryReplica(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	req, ok := parseQueryRequest(w, r)
	if !ok {
		return
	}
	if req.Since != nil || req.Follow {
		http.Error(w, "followers do not serve standing queries; use since=/follow= against the leader", http.StatusBadRequest)
		return
	}
	if req.MinVersion > 0 {
		if !checkMinVersion(w, opt.Replica.Version(), req.MinVersion) {
			return
		}
	}
	p, err := query.Parse(req.Pattern)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.Tau, p.Limit = req.Tau, req.Limit
	if err := p.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	kb, cur := opt.Replica.KB()
	rows := query.ScanKB(kb, p)
	if req.Stream {
		sw := startStream(w, cur)
		var line []byte
		for i := range rows {
			line = append(appendRow(line[:0], cur, &rows[i]), '\n')
			if sw.write(line) != nil {
				return
			}
		}
		return
	}
	writeQueryBody(w, cur, p, false, len(rows), appendRows(nil, rows))
}

// handleSessionReplica is /session on a follower: the replica's served
// state instead of an ingestion session, from its status alone (the
// counts are kept per verified version, so nothing is materialized).
func handleSessionReplica(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	st := opt.Replica.Status()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":         st.Role,
		"leader":       st.Leader,
		"version":      st.Version,
		"facts":        st.Facts,
		"entities":     st.Entities,
		"lag_versions": st.LagVersions,
		"degraded":     st.Degraded,
	})
}

// healthResponse is the /healthz shape: role and staleness at a glance,
// so load balancers can route around degraded or lagging replicas.
type healthResponse struct {
	Status             string `json:"status"`
	Role               string `json:"role"`
	Version            uint64 `json:"version"`
	Leader             string `json:"leader,omitempty"`
	LeaderHead         uint64 `json:"leader_head,omitempty"`
	LagVersions        uint64 `json:"lag_versions,omitempty"`
	LagMS              int64  `json:"lag_ms,omitempty"`
	LastVerifiedUnixMS int64  `json:"last_verified_unix_ms,omitempty"`
	Quarantined        int    `json:"quarantined,omitempty"`
	Degraded           bool   `json:"degraded,omitempty"`
}

// roleFor classifies the process: follower when replicating, leader
// once any replication stream has been served, standalone otherwise.
func roleFor(s *Server, opt HandlerOptions) string {
	if opt.Replica != nil {
		return "follower"
	}
	if s != nil && s.counters.Get(CounterDeltaStreams) > 0 {
		return "leader"
	}
	return "standalone"
}

func healthFor(s *Server, opt HandlerOptions) healthResponse {
	h := healthResponse{Status: "ok", Role: roleFor(s, opt)}
	switch {
	case opt.Replica != nil:
		st := opt.Replica.Status()
		h.Version = st.Version
		h.Leader = st.Leader
		h.LeaderHead = st.LeaderHead
		h.LagVersions = st.LagVersions
		h.LagMS = st.LagMS
		h.LastVerifiedUnixMS = st.LastVerifiedUnixMS
		h.Quarantined = len(st.Quarantined)
		h.Degraded = st.Degraded
		if st.Degraded {
			h.Status = "degraded"
		}
	case opt.Session != nil:
		h.Version = opt.Session.Snapshot().Version()
	}
	return h
}

// statsResponse wraps the server's cache/counter snapshot with the
// replication role, process uptime and build identity and, on a
// follower, the full replica status.
type statsResponse struct {
	Snapshot
	Role          string          `json:"role"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Build         buildRef        `json:"build"`
	Replica       *replica.Status `json:"replica,omitempty"`
}

// buildRef identifies the running binary: toolchain, platform, and the
// VCS revision when the binary was built from a checkout.
type buildRef struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// buildInfo is computed once: the binary does not change while running.
var buildInfo = sync.OnceValue(func() buildRef {
	b := buildRef{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Revision = s.Value
			case "vcs.modified":
				b.Modified = s.Value == "true"
			}
		}
	}
	return b
})

func statsFor(s *Server, opt HandlerOptions) statsResponse {
	resp := statsResponse{
		Role:          roleFor(s, opt),
		UptimeSeconds: time.Since(opt.StartTime).Seconds(),
		Build:         buildInfo(),
	}
	if s != nil {
		resp.Snapshot = s.Stats()
	}
	if opt.Replica != nil {
		st := opt.Replica.Status()
		resp.Replica = &st
	}
	return resp
}
