package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"qkbfly"
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

// parseQueryRequest folds GET parameters or a POST body into one
// request, reporting a client error (written) via ok=false.
func parseQueryRequest(w http.ResponseWriter, r *http.Request) (req queryRequest, ok bool) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Pattern = q.Get("pattern")
		if req.Tau, ok = floatParam(w, q, "tau"); !ok {
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
			n, ok := uintParam(w, q, "since")
			if !ok {
				return req, false
			}
			req.Since = &n
		}
		if req.MinVersion, ok = uintParam(w, q, "min_version"); !ok {
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
	if math.IsNaN(req.Tau) || math.IsInf(req.Tau, 0) {
		// The answer echoes τ, and JSON has no spelling for these.
		http.Error(w, "invalid tau: not a finite number", http.StatusBadRequest)
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
	e, cached, err := s.queryPattern(r.Context(), snap, p)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeQueryBody(w, snap.Version(), p, cached, len(e.rows), e.encoded())
}

// writeQueryBody writes the plain /query response around an answer's
// encoded rows:
//
//	{"version","pattern","tau","limit","served_from_cache","count","rows"}
func writeQueryBody(w http.ResponseWriter, version uint64, p *query.Pattern, cached bool, count int, rows []byte) {
	bp := getBodyBuf()
	defer putBodyBuf(bp)
	head := append(*bp, `{"version":`...)
	head = strconv.AppendUint(head, version, 10)
	head = append(head, `,"pattern":`...)
	head = appendJSONString(head, p.String())
	head = append(head, `,"tau":`...)
	head = appendJSONFloat(head, p.Tau)
	head = append(head, `,"limit":`...)
	head = strconv.AppendInt(head, int64(p.Limit), 10)
	head = append(head, `,"served_from_cache":`...)
	head = strconv.AppendBool(head, cached)
	head = append(head, `,"count":`...)
	head = strconv.AppendInt(head, int64(count), 10)
	head = append(head, `,"rows":`...)
	*bp = head
	writeJSONBody(w, head, rows, bodyEnd)
}

// bodyEnd closes a response object written around cached bytes.
var bodyEnd = []byte("}\n")

// writeRows streams an executor's rows stamped with version v, as the
// executor produces them.
func writeRows(sw *streamWriter, v uint64, rows *query.Rows) error {
	var line []byte
	for {
		row, ok := rows.Next()
		if !ok {
			return nil
		}
		line = append(appendRow(line[:0], v, &row), '\n')
		if err := sw.write(line); err != nil {
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
			var line []byte
			for _, row := range query.EvalDelta(ev.Snap.Tree(), p, ev.Delta) {
				line = append(appendRow(line[:0], ev.Version, &row), '\n')
				if err := sw.write(line); err != nil {
					return err
				}
			}
			return nil
		})
}
