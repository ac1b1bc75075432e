package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"qkbfly"
	"qkbfly/internal/analytics"
)

// handleAnalytics serves GET /analytics[?follow=1] from the daemon's
// incremental AnalyticsTracker — aggregates folded from the session's
// delta stream, never recomputed by scanning a snapshot, so the answer
// costs O(1) in corpus size.
//
// The plain response is the tracker's Summary (fact/entity totals,
// confidence histogram, per-predicate stats, per-type and per-document
// counts) plus the retained per-version growth records, stamped with an
// opaque content key (derived from the snapshot ContentID when the
// session's segments carry cache identities) so clients can detect
// "nothing changed" across polls. The marshaled body is cached per
// content key: repeated polls of an idle session serve identical bytes
// without re-marshaling.
//
// With ?follow=1 the response is NDJSON: one summary record, then one
// analytics.VersionDelta per published version as it folds, until the
// client disconnects or the tracker closes — the live analytics tail.
func handleAnalytics(c *analyticsCache, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	tr := opt.Analytics
	if tr == nil {
		http.Error(w, "no analytics tracker configured", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("follow") != "" {
		followAnalytics(tr, opt, w, r)
		return
	}
	body, version := c.respond(tr)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-QKBfly-Version", strconv.FormatUint(version, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// analyticsResponse is the /analytics JSON shape.
type analyticsResponse struct {
	*analytics.Summary
	// ContentID is the hex SHA-256 of the snapshot content key the
	// summary corresponds to: equal IDs across polls mean byte-identical
	// analytics.
	ContentID       string                   `json:"content_id"`
	ServedFromCache bool                     `json:"served_from_cache"`
	Growth          []analytics.VersionDelta `json:"growth"`
}

// analyticsCache memoizes the marshaled /analytics body per snapshot
// content key — the summary only changes when a version publishes, so
// polls between versions serve identical bytes.
type analyticsCache struct {
	mu      sync.Mutex
	key     string
	body    []byte
	version uint64
}

// respond returns the response body for the tracker's current state,
// serving the cached marshal when the content key is unchanged. The
// first poll after a version publishes reports served_from_cache=false
// (it paid the summarize+marshal); every later poll of the same key
// serves the cached bytes, marked true.
func (c *analyticsCache) respond(tr *qkbfly.AnalyticsTracker) (body []byte, version uint64) {
	sum, key, _ := tr.Summary()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.key == key && c.body != nil {
		return c.body, c.version
	}
	resp := analyticsResponse{
		Summary:   sum,
		ContentID: contentKeySHA(key),
		Growth:    tr.Growth(),
	}
	if resp.Growth == nil {
		resp.Growth = []analytics.VersionDelta{}
	}
	first := marshalAnalytics(resp)
	resp.ServedFromCache = true
	c.key, c.body, c.version = key, marshalAnalytics(resp), sum.Version
	return first, sum.Version
}

func marshalAnalytics(resp analyticsResponse) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		// Summary marshals by construction; keep the contract total anyway.
		b = []byte(`{"error":"analytics marshal failed"}`)
	}
	return append(b, '\n')
}

// contentKeySHA digests an opaque snapshot content key for exposure:
// keys may be long or contain binary separators; the hex digest is
// stable and printable.
func contentKeySHA(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// followAnalytics is the ?follow=1 NDJSON stream: current summary first,
// then one analytic delta per published version.
func followAnalytics(tr *qkbfly.AnalyticsTracker, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	// Attach the live tail before reading the summary so no version can
	// fall between the two; followTail skips the ones it already covers.
	live := tr.WatchAnalytics(r.Context())
	sum, key, _ := tr.Summary()

	sw := startStream(w, sum.Version)
	first := analyticsResponse{Summary: sum, ContentID: contentKeySHA(key), ServedFromCache: true, Growth: []analytics.VersionDelta{}}
	if sw.encode(first) != nil {
		return
	}
	followTail(sw, sum.Version, live,
		func(vd analytics.VersionDelta) uint64 { return vd.Version },
		func(vd analytics.VersionDelta, sw *streamWriter) error { return sw.encode(vd) })
}
