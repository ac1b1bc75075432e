package serve

import (
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
// counts) plus the retained per-version growth records, stamped with
// the version's content identity (content_id, equal to the /deltas
// fingerprint_sha256 of the same version) so clients can detect
// "nothing changed" across polls. The marshaled body is cached per
// version: repeated polls of an idle session serve identical bytes
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
	// ContentID is the hex content identity (store.Identity) of the
	// version the summary describes — the /deltas fingerprint_sha256 of
	// that version. Equal IDs mean equal content, so equal aggregates.
	ContentID       string                   `json:"content_id"`
	ServedFromCache bool                     `json:"served_from_cache"`
	Growth          []analytics.VersionDelta `json:"growth"`
}

// analyticsCache memoizes the marshaled /analytics body per version.
// The body carries the version and its growth records, which change
// with every version even when the content (and so the identity) does
// not, so the key is the summary the tracker computed for the version:
// one per version, and a new one after a resync.
type analyticsCache struct {
	mu   sync.Mutex
	sum  *analytics.Summary
	body []byte
}

// respond returns the response body for the tracker's current state,
// serving the cached marshal while the version is unchanged. The first
// poll after a version publishes reports served_from_cache=false (it
// paid the summarize+marshal); every later poll of the same version
// serves the cached bytes, marked true.
func (c *analyticsCache) respond(tr *qkbfly.AnalyticsTracker) (body []byte, version uint64) {
	sum, id, _ := tr.Summary()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sum == sum {
		return c.body, sum.Version
	}
	resp := analyticsResponse{
		Summary:   sum,
		ContentID: id.Hex(),
		Growth:    tr.Growth(),
	}
	if resp.Growth == nil {
		resp.Growth = []analytics.VersionDelta{}
	}
	first := marshalAnalytics(resp)
	resp.ServedFromCache = true
	c.sum, c.body = sum, marshalAnalytics(resp)
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

// followAnalytics is the ?follow=1 NDJSON stream: current summary first,
// then one analytic delta per published version.
func followAnalytics(tr *qkbfly.AnalyticsTracker, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	// Attach the live tail before reading the summary so no version can
	// fall between the two; followTail skips the ones it already covers.
	live := tr.WatchAnalytics(r.Context())
	sum, id, _ := tr.Summary()

	sw := startStream(w, sum.Version)
	first := analyticsResponse{Summary: sum, ContentID: id.Hex(), ServedFromCache: true, Growth: []analytics.VersionDelta{}}
	if sw.encode(first) != nil {
		return
	}
	followTail(sw, sum.Version, live,
		func(vd analytics.VersionDelta) uint64 { return vd.Version },
		func(vd analytics.VersionDelta, sw *streamWriter) error { return sw.encode(vd) })
}
