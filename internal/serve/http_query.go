package serve

import (
	"encoding/json"
	"net/http"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
)

// GET/POST /query — the HTTP surface of the streaming pattern-query
// engine, served against the daemon's live session:
//
//	GET  /query?pattern=...&tau=&limit=           cached JSON answer
//	GET  /query?pattern=...&stream=1              NDJSON row stream
//	GET  /query?pattern=...&since=N[&follow=1]    standing query: NDJSON
//	                                              incremental matches
//	POST /query {"pattern","tau","limit","stream","since","follow"}
//
// The plain form answers from the server's (normalized pattern,
// snapshot content identity) result cache with singleflight, so
// repeated dashboards cost one evaluation per published version.
// stream=1 bypasses the cache and streams rows as the executor produces
// them — for large results that should not be buffered server-side.
// since=N is the pattern projection of the session Feed: it replays
// the incremental matches introduced by versions N+1 through the
// current one (each version's delta evaluated against that version's
// tree, exactly what a follower attached at N would have received),
// emits a {"reset":true} line and a full answer instead when N predates
// the history horizon, and with follow=1 keeps the response open,
// streaming each further version's matches as ingests land.

// queryRequest is the POST /query body; GET parameters map to the same
// fields.
type queryRequest struct {
	Pattern string  `json:"pattern"`
	Tau     float64 `json:"tau"`
	Limit   int     `json:"limit"`
	Stream  bool    `json:"stream"`
	Since   *uint64 `json:"since"`
	Follow  bool    `json:"follow"`
	// MinVersion pins read-your-writes: a server whose serving version is
	// still behind answers 412 instead of silently returning stale rows
	// (matters on followers; a leader session is always current).
	MinVersion uint64 `json:"min_version"`
}

// valueRef is a bound value in a /query response.
type valueRef struct {
	Entity  string `json:"entity,omitempty"`
	Literal string `json:"literal,omitempty"`
	Time    bool   `json:"time,omitempty"`
}

// rowRef is one answer row: variable bindings plus one supporting fact
// per clause. Version is stamped on NDJSON lines of incremental streams.
type rowRef struct {
	Version  uint64              `json:"version,omitempty"`
	Bindings map[string]valueRef `json:"bindings"`
	Facts    []factRef           `json:"facts"`
}

// queryResponse is the plain (non-streaming) /query JSON shape.
type queryResponse struct {
	Version         uint64   `json:"version"`
	Pattern         string   `json:"pattern"`
	Tau             float64  `json:"tau"`
	Limit           int      `json:"limit"`
	ServedFromCache bool     `json:"served_from_cache"`
	Count           int      `json:"count"`
	Rows            []rowRef `json:"rows"`
}

func valueRefFor(v store.Value) valueRef {
	if v.IsEntity() {
		return valueRef{Entity: v.EntityID}
	}
	return valueRef{Literal: v.Literal, Time: v.IsTime}
}

func rowFor(version uint64, row query.Row) rowRef {
	out := rowRef{Version: version, Bindings: map[string]valueRef{}, Facts: []factRef{}}
	for name, v := range row.Bindings {
		out.Bindings[name] = valueRefFor(v)
	}
	for i := range row.Facts {
		f := &row.Facts[i]
		fr := factRef{
			Subject:    f.Subject.String(),
			Relation:   f.Relation,
			Confidence: f.Confidence,
			DocID:      f.Source.DocID,
			Sentence:   f.Source.SentIndex,
		}
		for _, o := range f.Objects {
			fr.Objects = append(fr.Objects, o.String())
		}
		out.Facts = append(out.Facts, fr)
	}
	return out
}

// parseQueryRequest folds GET parameters or a POST body into one
// request, reporting a client error (written) via ok=false.
func parseQueryRequest(w http.ResponseWriter, r *http.Request) (req queryRequest, ok bool) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Pattern = q.Get("pattern")
		if req.Tau, ok = floatParam(w, r, "tau"); !ok {
			return req, false
		}
		limit, err := intParam(q.Get("limit"), 0, 0)
		if err != nil {
			http.Error(w, "invalid limit: "+err.Error(), http.StatusBadRequest)
			return req, false
		}
		req.Limit = limit
		req.Stream = q.Get("stream") != ""
		req.Follow = q.Get("follow") != ""
		if q.Get("since") != "" {
			n, ok := uintParam(w, r, "since")
			if !ok {
				return req, false
			}
			req.Since = &n
		}
		if req.MinVersion, ok = uintParam(w, r, "min_version"); !ok {
			return req, false
		}
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "invalid body: "+err.Error(), http.StatusBadRequest)
			return req, false
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return req, false
	}
	if req.Pattern == "" {
		http.Error(w, "missing required parameter pattern", http.StatusBadRequest)
		return req, false
	}
	if req.Limit < 0 {
		http.Error(w, "invalid limit: negative", http.StatusBadRequest)
		return req, false
	}
	return req, true
}

func handleQuery(s *Server, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	sess := opt.Session
	if sess == nil && opt.Replica != nil {
		handleQueryReplica(opt, w, r)
		return
	}
	if sess == nil {
		http.Error(w, "no ingestion session configured", http.StatusServiceUnavailable)
		return
	}
	req, ok := parseQueryRequest(w, r)
	if !ok {
		return
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
	if req.MinVersion > 0 && !checkMinVersion(w, sess.Snapshot().Version(), req.MinVersion) {
		return
	}
	if req.Since != nil {
		streamIncremental(opt, w, r, p, *req.Since, req.Follow)
		return
	}
	snap := sess.Snapshot()
	if req.Stream {
		rows, err := snap.Query(p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = writeRows(startStream(w, snap.Version()), snap.Version(), rows)
		return
	}
	rows, cached, err := s.QueryPattern(r.Context(), snap, p)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := queryResponse{
		Version:         snap.Version(),
		Pattern:         p.String(),
		Tau:             p.Tau,
		Limit:           p.Limit,
		ServedFromCache: cached,
		Count:           len(rows),
		Rows:            []rowRef{},
	}
	for _, row := range rows {
		rr := rowFor(0, row)
		resp.Rows = append(resp.Rows, rr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeRows streams an executor's rows stamped with version v, as the
// executor produces them.
func writeRows(sw *streamWriter, v uint64, rows *query.Rows) error {
	for {
		row, ok := rows.Next()
		if !ok {
			return nil
		}
		if err := sw.encode(rowFor(v, row)); err != nil {
			return err // client gone or write deadline hit
		}
	}
}

// streamIncremental serves the ?since= form: NDJSON incremental matches
// per published version, optionally following the live session.
func streamIncremental(opt HandlerOptions, w http.ResponseWriter, r *http.Request, p *query.Pattern, since uint64, follow bool) {
	feed := opt.Session.Feed(r.Context(), qkbfly.FeedStart{
		Since: since, Tail: follow, Drops: qkbfly.CounterPatternWatchDrops,
	})
	streamFeed(w, feed,
		func(snap *qkbfly.Snapshot, sw *streamWriter) error {
			// History behind since is gone: re-base on the full current answer.
			if err := sw.encode(resetLine(snap.Version())); err != nil {
				return err
			}
			rows, err := snap.Query(p)
			if err != nil {
				return nil // p was validated; an unanswerable pattern re-bases on nothing
			}
			return writeRows(sw, snap.Version(), rows)
		},
		func(ev qkbfly.DeltaEvent, sw *streamWriter) error {
			for _, row := range query.EvalDelta(ev.Snap.Tree(), p, ev.Delta) {
				if err := sw.encode(rowFor(ev.Version, row)); err != nil {
					return err
				}
			}
			return nil
		})
}
