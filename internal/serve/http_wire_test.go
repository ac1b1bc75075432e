package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
	"qkbfly/internal/replica"
)

// Handler-level wire tests: every /kb and /query body the appenders
// write is compared byte for byte with the struct encoding of
// encode_oracle_test.go, over KBs whose entity IDs, names, titles,
// relations and literals carry the strings encoding/json escapes.

// wireBackend builds a deterministic shard of several facts per
// document, drawn from a generator seeded by the document ID. When
// release is set, builds signal started and wait for it. A plain backend
// keeps only the letters, digits, spaces and _#- of every string, so no
// string needs escaping (as in the benchmark's world).
type wireBackend struct {
	started chan struct{}
	release chan struct{}
	plain   bool
}

// text is s as the backend serves it.
func (b *wireBackend) text(s string) string {
	if !b.plain {
		return s
	}
	return strings.Map(func(c rune) rune {
		if c < 0x80 && (unicode.IsLetter(c) || unicode.IsDigit(c) || strings.ContainsRune(" _#-", c)) {
			return c
		}
		return -1
	}, s)
}

func seedFor(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// wireSuffixes decorate entity IDs; they stay free of line breaks, which
// a KB fingerprint line cannot hold.
var wireSuffixes = []string{"", `_<q>&"`, "_café", "_ ", `_back\slash`, "_\xff"}

var wireRelations = []string{"born in", "works for", `says "hi" <b>&`, "café rel"}

var wireConfidences = []float64{0, 1e-7, 1e-6, 0.25, 0.5, 0.9, 1, 1e21}

func (b *wireBackend) Retrieve(q, source string, size int) []*nlp.Document {
	docs := make([]*nlp.Document, size)
	for i := range docs {
		id := fmt.Sprintf("%s#%d", q, i)
		docs[i] = &nlp.Document{ID: id, Title: b.text(randString(rand.New(rand.NewSource(seedFor(id))))), Source: source}
	}
	return docs
}

func (b *wireBackend) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	if b.release != nil {
		b.started <- struct{}{}
		<-b.release
	}
	shards := make([]*store.KB, len(docs))
	bs := &qkbfly.BuildStats{Documents: len(docs), Parallelism: 1, PerDocElapsed: make([]time.Duration, len(docs))}
	for i, d := range docs {
		shards[i] = b.shard(d.ID)
		bs.PerDocElapsed[i] = time.Duration(1000 + i)
	}
	return shards, bs, nil
}

func (b *wireBackend) shard(id string) *store.KB {
	r := rand.New(rand.NewSource(seedFor(id)))
	kb := store.New()
	var ents []string
	for k := 0; k < 3; k++ {
		eid := b.text(fmt.Sprintf("E_%s_%d%s", id, k, wireSuffixes[r.Intn(len(wireSuffixes))]))
		ents = append(ents, eid)
		kb.AddEntity(store.EntityRecord{
			ID: eid, Name: b.text(randString(r)), Mentions: []string{b.text(randString(r))},
			Types: []string{[]string{"PERSON", "ORG", "LOCATION"}[r.Intn(3)]}, Emerging: r.Intn(2) == 0,
		})
	}
	value := func() store.Value {
		switch r.Intn(4) {
		case 0, 1:
			return store.Value{EntityID: ents[r.Intn(len(ents))]}
		case 2:
			return store.Value{Literal: fmt.Sprintf("%d-0%d-1%d", 1900+r.Intn(120), 1+r.Intn(9), r.Intn(10)), IsTime: true}
		default:
			return store.Value{Literal: b.text(randString(r))}
		}
	}
	for n := 4 + r.Intn(5); n > 0; n-- {
		f := store.Fact{
			Subject:    value(),
			Relation:   b.text(wireRelations[r.Intn(len(wireRelations))]),
			Confidence: wireConfidences[r.Intn(len(wireConfidences))],
			Source:     store.Provenance{DocID: id, SentIndex: r.Intn(20)},
		}
		for k := r.Intn(3); k > 0; k-- {
			f.Objects = append(f.Objects, value())
		}
		f.Pattern = f.Relation
		kb.AddFact(f)
	}
	return kb
}

func wireDocs(prefix string, lo, n int) []*nlp.Document {
	docs := make([]*nlp.Document, n)
	for i := range docs {
		id := fmt.Sprintf("%s%d", prefix, lo+i)
		docs[i] = &nlp.Document{ID: id, Title: id}
	}
	return docs
}

// newWireServer serves a Server over wireBackend with a live session
// holding n documents.
func newWireServer(t testing.TB, n int) (*Server, *qkbfly.Session, http.Handler) {
	t.Helper()
	return newWireServerOn(t, &wireBackend{}, n)
}

func newWireServerOn(t testing.TB, be *wireBackend, n int) (*Server, *qkbfly.Session, http.Handler) {
	t.Helper()
	srv := New(be, Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{})
	t.Cleanup(func() { sess.Close() })
	if n > 0 {
		if _, _, err := sess.Ingest(context.Background(), wireDocs("w", 0, n)); err != nil {
			t.Fatal(err)
		}
	}
	return srv, sess, NewHandler(srv, HandlerOptions{Session: sess})
}

func serveBody(t testing.TB, h http.Handler, method, target, body string) []byte {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from the struct encoding\n got %q\nwant %q", what, got, want)
	}
}

// kbOracle recomputes the body of a /kb response from the server's cached
// KB for the same request; the per-request scalars come from the body.
func kbOracle(t *testing.T, srv *Server, body []byte, params url.Values) []byte {
	t.Helper()
	var got struct {
		ElapsedNS int64 `json:"elapsed_ns"`
		Cached    bool  `json:"served_from_cache"`
		Joined    bool  `json:"joined_inflight"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	size, limit := 1, 100
	if v := params.Get("size"); v != "" {
		size, _ = strconv.Atoi(v)
	}
	if v := params.Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	tau, _ := strconv.ParseFloat(params.Get("tau"), 64)
	res, err := srv.KB(context.Background(), params.Get("q"), params.Get("source"), size)
	if err != nil || !res.CacheHit {
		t.Fatalf("re-reading %v: hit=%v err=%v", params, res.CacheHit, err)
	}
	facts := res.KB.Search(store.Query{
		Subject: params.Get("subject"), Predicate: params.Get("predicate"), Object: params.Get("object"), MinConf: tau,
	})
	if len(facts) > limit {
		facts = facts[:limit]
	}
	return oracleKBBody(params.Get("q"), params.Get("source"), size, res.KB, res.Docs, got.ElapsedNS, got.Cached, got.Joined, facts)
}

// TestServeWireKBBodiesMatchStructEncoding: /kb misses and hits, every filter
// (substring and Type:), τ and limit=0 write the struct encoding's bytes.
func TestServeWireKBBodiesMatchStructEncoding(t *testing.T) {
	srv, _, h := newWireServer(t, 0)
	queries := []string{"alpha", `be"ta <&>`, "café"}
	filters := []string{
		"", "&tau=0.5", "&tau=1e-6", "&limit=0", "&limit=3", "&size=4&source=news",
		"&subject=E_", "&subject=Type:PERSON", "&predicate=born", "&predicate=SAYS",
		"&object=Type:ORG", "&object=caf", "&object=19", "&subject=Type:ORG&object=Type:PERSON&tau=0.25",
		"&tau=-Inf", "&tau=Inf", "&tau=NaN", // /kb never echoes τ, so any float is served
	}
	seen := map[bool]int{}
	for _, q := range queries {
		for _, f := range filters {
			params, err := url.ParseQuery("q=" + url.QueryEscape(q) + f)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // a miss (first use of the key), then a hit
				body := serveBody(t, h, http.MethodGet, "/kb?"+params.Encode(), "")
				sameBytes(t, "/kb?"+params.Encode(), body, kbOracle(t, srv, body, params))
				seen[bytes.Contains(body, []byte(`"served_from_cache":true`))]++
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("served %d hits and %d misses, want both", seen[true], seen[false])
	}
}

// TestServeWireKBJoinedBody: a request coalesced onto an in-flight build
// writes the struct encoding's bytes too.
func TestServeWireKBJoinedBody(t *testing.T) {
	be := &wireBackend{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := New(be, Options{})
	ts := httptest.NewServer(NewHandler(srv, HandlerOptions{}))
	defer ts.Close()
	params := url.Values{"q": {"joined <q>"}, "size": {"3"}}
	bodies := make(chan []byte, 2)
	get := func() {
		resp, err := http.Get(ts.URL + "/kb?" + params.Encode())
		if err != nil {
			t.Error(err)
			bodies <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodies <- b
	}
	go get()
	<-be.started
	go get()
	// The second request has nothing to signal once it waits on the
	// flight; give it ample time to get there before the build finishes.
	time.Sleep(200 * time.Millisecond)
	close(be.release)
	joined := 0
	for i := 0; i < 2; i++ {
		body := <-bodies
		sameBytes(t, "/kb joined", body, kbOracle(t, srv, body, params))
		if bytes.Contains(body, []byte(`"joined_inflight":true`)) {
			joined++
		}
	}
	if joined != 1 {
		t.Fatalf("%d joined responses, want 1", joined)
	}
}

var wirePatterns = []string{
	`?s "born in" ?o`,
	`?z "works for" ?a ; ?z "born in" ?m`,
	`?s "says \"hi\" <b>&" _`,
	`?s _ ?o`,
	`e:E_w1_0 _ ?x`,
}

func queryTarget(src string, extra string) string {
	return "/query?pattern=" + url.QueryEscape(src) + extra
}

func mustParse(t testing.TB, src string, tau float64, limit int) *query.Pattern {
	t.Helper()
	p, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p.Tau, p.Limit = tau, limit
	return p
}

// TestServeWireQueryBodiesMatchStructEncoding: plain /query misses and hits
// (GET and POST, with τ and limit), answers rolled forward by
// maintenance, stream=1 and since= replays write the struct encoding's
// bytes.
func TestServeWireQueryBodiesMatchStructEncoding(t *testing.T) {
	srv, sess, h := newWireServer(t, 12)
	ctx := context.Background()
	plain := func(src string, tau float64, limit int, post bool) {
		t.Helper()
		snap := sess.Snapshot()
		p := mustParse(t, src, tau, limit)
		for pass := 0; pass < 2; pass++ {
			var body []byte
			if post {
				req, _ := json.Marshal(map[string]any{"pattern": src, "tau": tau, "limit": limit})
				body = serveBody(t, h, http.MethodPost, "/query", string(req))
			} else {
				body = serveBody(t, h, http.MethodGet, queryTarget(src, fmt.Sprintf("&tau=%v&limit=%d", tau, limit)), "")
			}
			rows, cached, err := srv.QueryPattern(ctx, snap, p)
			if err != nil || !cached {
				t.Fatalf("re-reading %s: cached=%v err=%v", src, cached, err)
			}
			sameBytes(t, src, body, oracleQueryBody(snap.Version(), p, pass == 1, rows))
		}
	}
	for _, src := range wirePatterns {
		plain(src, 0, 0, false)
		plain(src, 0.5, 0, false)
		plain(src, 0, 2, true)
	}

	// Roll the cache over an ingest, as MaintainPatterns does, and read the
	// maintained answers.
	deltas := sess.WatchDeltas(ctx)
	prev := sess.Snapshot()
	if _, _, err := sess.Ingest(ctx, wireDocs("w", 12, 2)); err != nil {
		t.Fatal(err)
	}
	ev := <-deltas
	srv.RollPatternCache(prev.ContentID(), ev.Snap, ev.Delta)
	if srv.Counters().Get(CounterPatternMaintained) == 0 {
		t.Fatal("no pattern answer was maintained")
	}
	for _, src := range wirePatterns {
		p := mustParse(t, src, 0, 0)
		body := serveBody(t, h, http.MethodGet, queryTarget(src, ""), "")
		rows, _, _ := srv.QueryPattern(ctx, ev.Snap, p)
		sameBytes(t, "maintained "+src, body, oracleQueryBody(ev.Snap.Version(), p, true, rows))
	}

	// stream=1: the executor's rows, one stamped line each.
	for _, src := range wirePatterns {
		p := mustParse(t, src, 0.25, 0)
		snap := sess.Snapshot()
		it, err := snap.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		body := serveBody(t, h, http.MethodGet, queryTarget(src, "&tau=0.25&stream=1"), "")
		sameBytes(t, "stream "+src, body, oracleRowLines(snap.Version(), it.Collect()))
	}

	// since=: each replayed version's delta rows, stamped with it.
	if _, _, err := sess.Ingest(ctx, wireDocs("w", 14, 3)); err != nil {
		t.Fatal(err)
	}
	for _, since := range []uint64{0, 1, 2} {
		for _, src := range wirePatterns {
			p := mustParse(t, src, 0, 0)
			feed := sess.Feed(ctx, qkbfly.FeedStart{Since: since})
			var want []byte
			for _, ev := range feed.Replay {
				want = append(want, oracleRowLines(ev.Version, query.EvalDelta(ev.Snap.Tree(), p, ev.Delta))...)
			}
			body := serveBody(t, h, http.MethodGet, queryTarget(src, fmt.Sprintf("&since=%d", since)), "")
			sameBytes(t, fmt.Sprintf("since=%d %s", since, src), body, want)
		}
	}
}

// TestServeWireQueryResetAndFollow: a since= behind the history horizon
// re-bases (reset line, then the full answer) and follow=1 streams each
// new version's rows, byte-identical to the struct encoding.
func TestServeWireQueryResetAndFollow(t *testing.T) {
	srv := New(&wireBackend{}, Options{})
	sess := srv.OpenSession(qkbfly.SessionOptions{HistoryLimit: 1})
	defer sess.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerOptions{Session: sess}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, _, err := sess.Ingest(ctx, wireDocs("r", 2*i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	src := `?s _ ?o`
	p := mustParse(t, src, 0, 0)

	snap := sess.Snapshot()
	it, err := snap.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	want := append(oracleJSON(map[string]any{"reset": true, "version": snap.Version()}), oracleRowLines(snap.Version(), it.Collect())...)
	resp, err := http.Get(ts.URL + queryTarget(src, "&since=0"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sameBytes(t, "reset", body, want)

	// Follow from one version back: the replayed version's rows arrive
	// first (and carry the response headers out), then the live ones.
	feed := sess.Feed(ctx, qkbfly.FeedStart{Since: snap.Version() - 1})
	if len(feed.Replay) != 1 {
		t.Fatalf("replay from one version back holds %d versions", len(feed.Replay))
	}
	replayed := query.EvalDelta(feed.Replay[0].Snap.Tree(), p, feed.Replay[0].Delta)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+queryTarget(src, fmt.Sprintf("&since=%d&follow=1", snap.Version()-1)), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	readLines := func(n int) []byte {
		t.Helper()
		var got []byte
		for ; n > 0; n-- {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				t.Fatalf("follow stream: %v", err)
			}
			got = append(got, line...)
		}
		return got
	}
	sameBytes(t, "follow replay", readLines(len(replayed)), oracleRowLines(snap.Version(), replayed))

	deltas := sess.WatchDeltas(ctx)
	if _, _, err := sess.Ingest(ctx, wireDocs("r", 6, 2)); err != nil {
		t.Fatal(err)
	}
	ev := <-deltas
	rows := query.EvalDelta(ev.Snap.Tree(), p, ev.Delta)
	if len(rows) == 0 {
		t.Fatal("the followed ingest matched no row")
	}
	sameBytes(t, "follow", readLines(len(rows)), oracleRowLines(ev.Version, rows))
}

// TestServeWireFollowerQueryBodies: a follower's /query (plain and stream=1)
// writes the struct encoding's bytes.
func TestServeWireFollowerQueryBodies(t *testing.T) {
	_, sess, _ := newWireServer(t, 10)
	kb := sess.Snapshot().KB()
	f := replica.New(replica.Options{Leader: "http://leader.invalid:0"})
	f.Seed(kb, 9, kb.Identity())
	h := NewHandler(New(nil, Options{}), HandlerOptions{Replica: f})
	for _, src := range wirePatterns {
		for _, lim := range []int{0, 3} {
			p := mustParse(t, src, 0.25, lim)
			rows := query.ScanKB(kb, p)
			extra := fmt.Sprintf("&tau=0.25&limit=%d", lim)
			sameBytes(t, "follower "+src, serveBody(t, h, http.MethodGet, queryTarget(src, extra), ""), oracleQueryBody(9, p, false, rows))
			sameBytes(t, "follower stream "+src, serveBody(t, h, http.MethodGet, queryTarget(src, extra+"&stream=1"), ""), oracleRowLines(9, rows))
		}
	}
}

// TestServeWireConcurrentFirstReads: many requests reading one entry for
// the first time at once — a pattern answer (leader and joiners of one
// evaluation, which encode it lazily) and a cached KB (its first hits,
// which share its facts) — all write the same bytes; run it under -race.
func TestServeWireConcurrentFirstReads(t *testing.T) {
	_, _, h := newWireServer(t, 20)
	kbTarget := "/kb?q=concurrent&size=5"
	serveBody(t, h, http.MethodGet, kbTarget, "") // the miss; the hits below read the entry first
	for _, target := range []string{queryTarget(`?s _ ?o`, ""), kbTarget} {
		const readers = 8
		bodies := make(chan []byte, readers)
		for i := 0; i < readers; i++ {
			go func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				// Only the served_from_cache flag may differ between the
				// evaluating request and the rest.
				bodies <- bytes.Replace(rec.Body.Bytes(), []byte(`"served_from_cache":false`), []byte(`"served_from_cache":true`), 1)
			}()
		}
		first := <-bodies
		for i := 1; i < readers; i++ {
			sameBytes(t, target, <-bodies, first)
		}
	}
}

// TestServeWireQueryRejectsNonFiniteTau: /query echoes τ in its answer, and
// JSON has no spelling for NaN or the infinities, so it refuses them;
// /facts, which does not echo τ, serves them as before.
func TestServeWireQueryRejectsNonFiniteTau(t *testing.T) {
	_, _, h := newWireServer(t, 2)
	for target, want := range map[string]int{
		"/query?pattern=%3Fs+_+%3Fo&tau=inf":  http.StatusBadRequest,
		"/query?pattern=%3Fs+_+%3Fo&tau=NaN":  http.StatusBadRequest,
		"/query?pattern=%3Fs+_+%3Fo&tau=-Inf": http.StatusBadRequest,
		"/facts?tau=-Inf":                     http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != want {
			t.Errorf("GET %s: %d, want %d", target, rec.Code, want)
		}
	}
}

// hitAllocs measures one request's allocations once its answer is cached.
func hitAllocs(t *testing.T, h http.Handler, target string) float64 {
	t.Helper()
	serveBody(t, h, http.MethodGet, target, "") // fill the cache
	body := new(bytes.Buffer)
	return testing.AllocsPerRun(50, func() {
		body.Reset()
		rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: body, Code: http.StatusOK}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK || !bytes.Contains(body.Bytes(), []byte(`"served_from_cache":true`)) {
			t.Fatalf("%s: %d, not a cache hit: %.200s", target, rec.Code, body)
		}
	})
}

// maxHitAllocs bounds a /kb cache hit's allocations. Encoding per fact
// through maps, structs or encoding/json would cost hundreds for the
// listing below; the request itself (routing, URL and parameter parsing,
// the query key) costs a few dozen, and the listing reads the cached
// KB's matches in place (KB.Matches) without copying them.
const maxHitAllocs = 60

// maxQueryHitAllocs bounds a /query cache hit's allocations at the count
// measured on it: 33, and 34 under the race detector. They are routing,
// URL and parameter parsing, the pattern parse and its canonical form,
// and the response; the cache key is the snapshot's identity and costs
// none, and the rows are the entry's bytes.
const maxQueryHitAllocs = 34

// TestServeWireHitAllocations: a /query hit on a cached 200-row answer and a
// /kb hit listing 100 facts allocate a small count, independent of the
// answer's size. The /query rows come from the entry's bytes, so its KB
// carries strings that would need encoding/json; /kb encodes its listing
// on every request, and a fact whose strings need no escaping costs it
// no allocation.
func TestServeWireHitAllocations(t *testing.T) {
	_, _, h := newWireServer(t, 60)
	target := queryTarget(`?s _ ?o`, "&limit=200")
	body := serveBody(t, h, http.MethodGet, target, "")
	if !bytes.Contains(body, []byte(`"count":200,`)) {
		t.Fatalf("fixture answer is not 200 rows: %.200s", body)
	}
	if n := hitAllocs(t, h, target); n > maxQueryHitAllocs {
		t.Errorf("/query hit on 200 rows: %.0f allocations, want <= %d", n, maxQueryHitAllocs)
	}
	_, _, h = newWireServerOn(t, &wireBackend{plain: true}, 0)
	kbTarget := "/kb?q=alloc&size=30"
	body = serveBody(t, h, http.MethodGet, kbTarget, "")
	if strings.Count(string(body), `"subject":`) != 100 {
		t.Fatalf("fixture /kb listing is not 100 facts: %.200s", body)
	}
	if n := hitAllocs(t, h, kbTarget); n > maxHitAllocs {
		t.Errorf("/kb hit on 100 facts: %.0f allocations, want <= %d", n, maxHitAllocs)
	}
}

func benchmarkHit(b *testing.B, be *wireBackend, target string) {
	_, _, h := newWireServerOn(b, be, 60)
	serveBody(b, h, http.MethodGet, target, "")
	body := new(bytes.Buffer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset()
		rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: body, Code: http.StatusOK}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	}
	b.SetBytes(int64(body.Len()))
}

// BenchmarkServeQueryHit times a /query hit on a cached 200-row answer.
func BenchmarkServeQueryHit(b *testing.B) {
	benchmarkHit(b, &wireBackend{}, queryTarget(`?s _ ?o`, "&limit=200"))
}

// BenchmarkServeKBHit times a /kb hit listing 100 facts of a cached KB
// whose strings need no escaping.
func BenchmarkServeKBHit(b *testing.B) {
	benchmarkHit(b, &wireBackend{plain: true}, "/kb?q=bench&size=30")
}
