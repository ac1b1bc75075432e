package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/replica"
)

// Answerer answers natural-language questions; internal/qa's System
// satisfies it. It is declared here (structurally) so the HTTP layer does
// not import the qa package.
type Answerer interface {
	Answer(question string) []string
}

// ContextAnswerer is the context-aware variant; when the configured
// Answerer also implements it (qa.System does), /answer builds run under
// the request context and a disconnecting client cancels them.
type ContextAnswerer interface {
	AnswerContext(ctx context.Context, question string) []string
}

// Request bounds: /kb builds from at most maxKBSize retrieved documents
// (?size= defaults to 1), and a POST /ingest body is at most
// maxIngestBytes.
const (
	maxKBSize      = 50
	maxIngestBytes = 8 << 20
)

// HandlerOptions tune the HTTP endpoints.
type HandlerOptions struct {
	// DefaultSource restricts retrieval when the request omits ?source=
	// ("wikipedia", "news" or "" for both).
	DefaultSource string
	// Answerer serves /answer; when nil the endpoint returns 503.
	Answerer Answerer
	// Session is the daemon's live ingestion session, serving POST /ingest,
	// POST /evict, GET /session, GET /facts and GET /deltas. When nil
	// those endpoints return 503.
	Session *qkbfly.Session
	// Replica, on a following daemon (-follow), serves reads — /facts,
	// /query, /session — from the follower's last identity-verified
	// KB instead of a Session, and surfaces role/lag through /healthz
	// and /stats. Mutually exclusive with Session.
	Replica *replica.Follower
	// Analytics serves GET /analytics from an incremental tracker over
	// the live session. When nil the endpoint returns 503.
	Analytics *qkbfly.AnalyticsTracker
	// StartTime stamps /stats uptime; zero means NewHandler's call time.
	StartTime time.Time
}

// NewHandler exposes a Server over HTTP/JSON:
//
//	GET  /kb?q=...&source=&size=&subject=&predicate=&object=&tau=&limit=
//	GET  /answer?q=...
//	POST /ingest                      {"docs":[{"id","title","source","text"}]}
//	POST /evict                       {"doc_ids":["..."]}
//	GET  /facts?since=&tau=&follow=   NDJSON stream of added facts
//	GET  /deltas?since=&follow=&snapshot=  replication stream: one
//	                                  identity-stamped store.Delta per version
//	GET  /session                     live-session version + document window
//	GET  /analytics?follow=           incremental aggregates (cached JSON);
//	                                  follow= streams per-version analytic deltas
//	GET  /stats                       caches, counters, uptime, build, replication role
//	GET  /healthz                     role, version, staleness/lag
//
// Every build runs under the request context, so a disconnecting client
// cancels its in-flight construction. The session endpoints serve the
// live-updating KB of HandlerOptions.Session; on a follower
// (HandlerOptions.Replica) reads come from the last identity-verified
// replicated version, and ?min_version=N pins read-your-writes (412 when
// the replica is still behind N).
func NewHandler(s *Server, opt HandlerOptions) http.Handler {
	if opt.StartTime.IsZero() {
		opt.StartTime = time.Now()
	}
	acache := &analyticsCache{}
	mux := http.NewServeMux()
	mux.HandleFunc("/kb", func(w http.ResponseWriter, r *http.Request) {
		handleKB(s, opt, w, r)
	})
	mux.HandleFunc("/answer", func(w http.ResponseWriter, r *http.Request) {
		handleAnswer(opt, w, r)
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(opt, w, r)
	})
	mux.HandleFunc("/evict", func(w http.ResponseWriter, r *http.Request) {
		handleEvict(s, opt, w, r)
	})
	mux.HandleFunc("/facts", func(w http.ResponseWriter, r *http.Request) {
		handleFacts(opt, w, r)
	})
	mux.HandleFunc("/session", func(w http.ResponseWriter, r *http.Request) {
		handleSession(opt, w, r)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, opt, w, r)
	})
	mux.HandleFunc("/deltas", func(w http.ResponseWriter, r *http.Request) {
		handleDeltas(s, opt, w, r)
	})
	mux.HandleFunc("/analytics", func(w http.ResponseWriter, r *http.Request) {
		handleAnalytics(acache, opt, w, r)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !getOnly(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, statsFor(s, opt))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !getOnly(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, healthFor(s, opt))
	})
	return mux
}

func handleKB(s *Server, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if s == nil || !s.HasBackend() {
		// A follower daemon carries no construction pipeline; on-the-fly
		// builds happen on the leader.
		http.Error(w, "no construction backend configured", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	query := q.Get("q")
	if query == "" {
		http.Error(w, "missing required parameter q", http.StatusBadRequest)
		return
	}
	source := opt.DefaultSource
	if v, ok := q["source"]; ok {
		source = v[0]
	}
	// All parameters are validated before any engine work starts.
	size, err := intParam(q.Get("size"), 1, 1)
	if err != nil {
		http.Error(w, "invalid size: "+err.Error(), http.StatusBadRequest)
		return
	}
	size = min(size, maxKBSize)
	limit, err := intParam(q.Get("limit"), 100, 0) // an explicit limit=0 lists no facts
	if err != nil {
		http.Error(w, "invalid limit: "+err.Error(), http.StatusBadRequest)
		return
	}
	tau, ok := floatParam(w, q, "tau")
	if !ok {
		return
	}
	res, err := s.KB(r.Context(), query, source, size)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone (or gave up); nothing useful to write.
			http.Error(w, "build cancelled: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	bp := getBodyBuf()
	defer putBodyBuf(bp)
	*bp = appendKBBody(*bp, query, source, size, limit, res, store.Query{
		Subject:   q.Get("subject"),
		Predicate: q.Get("predicate"),
		Object:    q.Get("object"),
		MinConf:   tau,
	})
	writeJSONBody(w, *bp)
}

// appendKBBody appends the /kb response for res:
//
//	{"query","source","size","docs","fact_count","entity_count",
//	 "emerging_count","elapsed_ns","served_from_cache","joined_inflight","facts"}
//
// facts lists the first limit facts matching filter, in fact-ID order.
func appendKBBody(buf []byte, query, source string, size, limit int, res *Result, filter store.Query) []byte {
	buf = append(buf, `{"query":`...)
	buf = appendJSONString(buf, query)
	buf = append(buf, `,"source":`...)
	buf = appendJSONString(buf, source)
	buf = append(buf, `,"size":`...)
	buf = strconv.AppendInt(buf, int64(size), 10)
	buf = append(buf, `,"docs":`...)
	buf = appendDocs(buf, res.Docs)
	buf = append(buf, `,"fact_count":`...)
	buf = strconv.AppendInt(buf, int64(res.KB.Len()), 10)
	buf = append(buf, `,"entity_count":`...)
	buf = strconv.AppendInt(buf, int64(res.KB.EntityCount()), 10)
	buf = append(buf, `,"emerging_count":`...)
	buf = strconv.AppendInt(buf, int64(res.KB.EmergingCount()), 10)
	buf = append(buf, `,"elapsed_ns":`...)
	buf = strconv.AppendInt(buf, int64(statsElapsed(res)), 10)
	buf = append(buf, `,"served_from_cache":`...)
	buf = strconv.AppendBool(buf, res.CacheHit)
	buf = append(buf, `,"joined_inflight":`...)
	buf = strconv.AppendBool(buf, res.Joined)
	buf = append(buf, `,"facts":[`...)
	n := 0
	for f := range res.KB.Matches(filter) {
		if n == limit {
			break
		}
		if n > 0 {
			buf = append(buf, ',')
		}
		n++
		buf = appendFact(buf, f)
	}
	return append(buf, "]}\n"...)
}

func handleAnswer(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if opt.Answerer == nil {
		http.Error(w, "no answerer configured", http.StatusServiceUnavailable)
		return
	}
	question := r.URL.Query().Get("q")
	if question == "" {
		http.Error(w, "missing required parameter q", http.StatusBadRequest)
		return
	}
	var answers []string
	if ca, ok := opt.Answerer.(ContextAnswerer); ok {
		answers = ca.AnswerContext(r.Context(), question)
	} else {
		answers = opt.Answerer.Answer(question)
	}
	if answers == nil {
		answers = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"question": question,
		"answers":  answers,
	})
}

// ingestDoc is one raw document in a POST /ingest body. Text is
// sentence-split and annotated by the pipeline on ingest.
type ingestDoc struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Source string `json:"source"`
	Text   string `json:"text"`
}

// ingestResponse reports the outcome of one /ingest call.
type ingestResponse struct {
	Version   uint64 `json:"version"`
	Ingested  int    `json:"ingested"` // documents built and folded by this call
	Skipped   int    `json:"skipped"`  // documents already in the session
	Docs      int    `json:"docs"`     // documents now in the session window
	Facts     int    `json:"facts"`    // facts in the current snapshot
	ElapsedNS int64  `json:"elapsed_ns"`
}

func handleIngest(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	if opt.Replica != nil {
		http.Error(w, "read-only follower: ingest on the leader", http.StatusForbidden)
		return
	}
	if opt.Session == nil {
		http.Error(w, "no ingestion session configured", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Docs []ingestDoc `json:"docs"`
	}
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "invalid body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Docs) == 0 {
		http.Error(w, "body must carry at least one document", http.StatusBadRequest)
		return
	}
	docs := make([]*nlp.Document, 0, len(req.Docs))
	for i, d := range req.Docs {
		if d.ID == "" || d.Text == "" {
			http.Error(w, fmt.Sprintf("doc %d: id and text are required", i), http.StatusBadRequest)
			return
		}
		// The document ID is the one unquoted free text in a KB
		// fingerprint line (a fact's src=<id>:<sentence>): a newline in it
		// would split the line, and the text's identity would no longer
		// match the one folded record by record.
		if strings.IndexFunc(d.ID, unicode.IsControl) >= 0 {
			http.Error(w, fmt.Sprintf("doc %d: id must not contain control characters", i), http.StatusBadRequest)
			return
		}
		src := d.Source
		if src == "" {
			src = "news"
		}
		docs = append(docs, &nlp.Document{ID: d.ID, Title: d.Title, Source: src, Text: d.Text})
	}
	snap, bs, err := opt.Session.Ingest(r.Context(), docs)
	if err != nil {
		// A closed session (daemon draining) and a cancelled build are both
		// service conditions, not server faults.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, qkbfly.ErrSessionClosed) {
			http.Error(w, "ingest unavailable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ingested := len(bs.PerDocElapsed)
	writeJSON(w, http.StatusOK, ingestResponse{
		Version:   snap.Version(),
		Ingested:  ingested,
		Skipped:   len(docs) - ingested,
		Docs:      opt.Session.DocCount(),
		Facts:     snap.FactCount(),
		ElapsedNS: int64(bs.Elapsed),
	})
}

func handleEvict(s *Server, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	if opt.Replica != nil {
		http.Error(w, "read-only follower: evict on the leader", http.StatusForbidden)
		return
	}
	if opt.Session == nil {
		http.Error(w, "no ingestion session configured", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		DocIDs []string `json:"doc_ids"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Drop the cached shards too, so re-ingesting one of these IDs with
	// different content rebuilds instead of folding the stale shard.
	s.InvalidateShards(req.DocIDs...)
	snap, removed := opt.Session.Evict(req.DocIDs...)
	writeJSON(w, http.StatusOK, map[string]any{
		"version": snap.Version(),
		"removed": removed,
		"docs":    opt.Session.DocCount(),
		"facts":   snap.FactCount(),
	})
}

func handleSession(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if opt.Session == nil && opt.Replica != nil {
		handleSessionReplica(opt, w, r)
		return
	}
	if opt.Session == nil {
		http.Error(w, "no ingestion session configured", http.StatusServiceUnavailable)
		return
	}
	snap := opt.Session.Snapshot()
	resp := map[string]any{
		"version":  snap.Version(),
		"docs":     opt.Session.Docs(),
		"facts":    snap.FactCount(),
		"entities": snap.EntityCount(),
	}
	if r.URL.Query().Get("fingerprint") != "" {
		resp["fingerprint"] = snap.Fingerprint()
	}
	writeJSON(w, http.StatusOK, resp)
}

// factLine is one NDJSON line of GET /facts.
type factLine struct {
	Version    uint64   `json:"version"`
	Subject    string   `json:"subject"`
	Relation   string   `json:"relation"`
	Objects    []string `json:"objects"`
	Confidence float64  `json:"confidence"`
	DocID      string   `json:"doc_id"`
	Sentence   int      `json:"sentence"`
}

func lineFor(v uint64, f *store.Fact) factLine {
	l := factLine{
		Version:    v,
		Subject:    f.Subject.String(),
		Relation:   f.Relation,
		Objects:    []string{},
		Confidence: f.Confidence,
		DocID:      f.Source.DocID,
		Sentence:   f.Source.SentIndex,
	}
	for _, o := range f.Objects {
		l.Objects = append(l.Objects, o.String())
	}
	return l
}

// handleFacts streams the facts the session added after ?since= as NDJSON
// (one JSON object per line), newest version stamped in the
// X-QKBfly-Version header: the plain-fact projection (added, then
// changed in place, filtered by the request's own ?tau=) of the
// session Feed. When since predates the retained history horizon, a
// {"reset":true} line is emitted followed by a full dump of the current
// snapshot — the client re-bases and resumes from the header version.
// With ?follow=1 the response then stays open, streaming facts as
// further ingests land, until the client disconnects.
func handleFacts(opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	sess := opt.Session
	if sess == nil && opt.Replica != nil {
		handleFactsReplica(opt, w, r)
		return
	}
	if sess == nil {
		http.Error(w, "no ingestion session configured", http.StatusServiceUnavailable)
		return
	}
	since, tau, min, ok := factsParams(w, r)
	if !ok {
		return
	}
	if min > 0 && !checkMinVersion(w, sess.Snapshot().Version(), min) {
		return
	}
	feed := sess.Feed(r.Context(), qkbfly.FeedStart{
		Since: since, Tail: r.URL.Query().Get("follow") != "", Drops: qkbfly.CounterWatchDrops,
	})
	streamFeed(w, feed,
		func(snap *qkbfly.Snapshot, sw *streamWriter) error {
			return writeFactDump(sw, snap.KB(), snap.Version(), tau)
		},
		func(ev qkbfly.DeltaEvent, sw *streamWriter) error {
			for _, fe := range ev.Facts(tau) {
				if err := sw.encode(lineFor(fe.Version, &fe.Fact)); err != nil {
					return err
				}
			}
			return nil
		})
}

// factsParams parses what /facts takes on a leader and a follower
// alike: ?since=, ?tau= and ?min_version=.
func factsParams(w http.ResponseWriter, r *http.Request) (since uint64, tau float64, min uint64, ok bool) {
	q := r.URL.Query()
	if since, ok = uintParam(w, q, "since"); !ok {
		return
	}
	if tau, ok = floatParam(w, q, "tau"); !ok {
		return
	}
	min, ok = uintParam(w, q, "min_version")
	return
}

// writeFactDump writes the /facts re-baseline block: the reset line,
// then every fact of kb at or above tau, stamped with version v.
func writeFactDump(sw *streamWriter, kb *store.KB, v uint64, tau float64) error {
	if err := sw.encode(resetLine(v)); err != nil {
		return err
	}
	facts := kb.Facts()
	for i := range facts {
		if facts[i].Confidence < tau {
			continue
		}
		if err := sw.encode(lineFor(v, &facts[i])); err != nil {
			return err
		}
	}
	return nil
}

func statsElapsed(res *Result) time.Duration {
	if res.Stats == nil {
		return 0
	}
	return res.Stats.Elapsed
}

func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// intParam parses an optional integer query parameter: absent means def,
// and malformed or below-minimum values are errors (400), never silently
// replaced.
func intParam(v string, def, min int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < min {
		return 0, fmt.Errorf("%d is below the minimum %d", n, min)
	}
	return n, nil
}

// uintParam parses an optional unsigned query parameter (a version):
// absent means 0, and a malformed value is a 400, reported through
// ok=false with the response already written.
func uintParam(w http.ResponseWriter, q url.Values, name string) (n uint64, ok bool) {
	v := q.Get(name)
	if v == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		http.Error(w, "invalid "+name+": "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// floatParam is uintParam for an optional float (a confidence threshold).
func floatParam(w http.ResponseWriter, q url.Values, name string) (f float64, ok bool) {
	v := q.Get(name)
	if v == "" {
		return 0, true
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		http.Error(w, "invalid "+name+": "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return f, true
}

// writeJSON writes v as one line of compact JSON, the form of every JSON
// body the daemon writes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
