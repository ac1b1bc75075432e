package main

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/serve"
)

// The timing decorators of a traced child. Each wraps one seam the program
// already exposes and records a span around every call; the program itself
// is not touched. `bench serve` installs them only under -trace.

// tracedHandler spans the three request classes the workloads issue and
// counts the response bytes. Every other path (streams, /stats, /session)
// passes through untouched.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var cur *atomic.Pointer[span]
		switch r.URL.Path {
		case "/kb":
			cur = &tr.curKB
		case "/ingest":
			cur = &tr.curIngest
		case "/query":
		default:
			next.ServeHTTP(w, r)
			return
		}
		sp, ctx := tr.start(r.Context(), "http"+r.URL.Path, nil)
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		sp.Req, _ = strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		if cur != nil {
			cur.Store(sp)
			defer cur.Store(nil)
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(ctx))
		sp.set("bytes", float64(cw.n))
		tr.end(sp)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// tracedBackend wraps serve.Backend: retrieval and the engine run, with
// the engine's own per-stage accounting attached to the build span.
type tracedBackend struct {
	sys *qkbfly.System
	tr  *tracer
}

var _ serve.Backend = tracedBackend{}

func (b tracedBackend) Retrieve(query, source string, size int) []*nlp.Document {
	sp, _ := b.tr.start(context.Background(), "search.retrieve", b.tr.curKB.Load())
	docs := b.sys.Retrieve(query, source, size)
	sp.set("docs", float64(len(docs)))
	b.tr.end(sp)
	return docs
}

func (b tracedBackend) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	sp, ctx := b.tr.start(ctx, "engine.build", b.tr.curKB.Load())
	shards, bs, err := b.sys.BuildShardsContext(ctx, docs, opts...)
	if sp != nil && bs != nil {
		sp.set("docs", float64(bs.Documents))
		sp.set("sentences", float64(bs.Sentences))
		sp.set("clauses", float64(bs.Clauses))
		sp.set("edges_removed", float64(bs.EdgesRemoved))
		sp.set("workers", float64(bs.Parallelism))
		sp.set("annotate_ns", float64(bs.StageElapsed.Annotate))
		sp.set("graph_ns", float64(bs.StageElapsed.Graph))
		sp.set("densify_ns", float64(bs.StageElapsed.Densify))
		sp.set("canon_ns", float64(bs.StageElapsed.Canonicalize))
	}
	b.tr.end(sp)
	return shards, bs, err
}

// tracedBuilder wraps the *serve.Server a session is opened on: the
// qkbfly.SegmentBuilder and qkbfly.SegmentMerger seams.
type tracedBuilder struct {
	srv *serve.Server
	tr  *tracer
}

var (
	_ qkbfly.SegmentBuilder = tracedBuilder{}
	_ qkbfly.SegmentMerger  = tracedBuilder{}
)

func (b tracedBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	return b.srv.BuildShardsContext(ctx, docs, opts...)
}

func (b tracedBuilder) BuildSegmentsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.Segment, *qkbfly.BuildStats, error) {
	sp, ctx := b.tr.start(ctx, "session.build_segments", b.tr.curIngest.Load())
	segs, bs, err := b.srv.BuildSegmentsContext(ctx, docs, opts...)
	b.tr.end(sp)
	return segs, bs, err
}

// MergeSegments is the session merge tree's merge function. With deferred
// compaction the tree merges on the maintenance worker, not on the ingest
// path, so the span is a root: it never counts against a request.
func (b tracedBuilder) MergeSegments(x, y *store.Segment) *store.Segment {
	sp, _ := b.tr.start(context.Background(), "store.merge_segments", nil)
	m := b.srv.MergeSegments(x, y)
	sp.set("facts", float64(m.Len()))
	b.tr.end(sp)
	return m
}

// tracedPersistence wraps qkbfly.Persistence: the enqueue the session does
// under its lock on every published version.
type tracedPersistence struct {
	next qkbfly.Persistence
	tr   *tracer
}

func (p tracedPersistence) Publish(version, nextSeq uint64, addKeys []string, addSeqs []uint64,
	addSegs []*store.Segment, delSeqs []uint64, tree *store.Tree) {
	sp, _ := p.tr.start(context.Background(), "persist.publish", p.tr.curIngest.Load())
	p.next.Publish(version, nextSeq, addKeys, addSeqs, addSegs, delSeqs, tree)
	p.tr.end(sp)
}
