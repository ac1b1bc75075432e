package qkbfly_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
)

func queryKeys(rows []query.Row) []string {
	if len(rows) == 0 {
		return nil
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// sealingBuilder wraps a System and seals each shard under its document
// ID, giving session trees content identities the way a server-backed
// session gets them (a bare System's fallback sealing is anonymous).
type sealingBuilder struct{ sys *qkbfly.System }

func (b *sealingBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	return b.sys.BuildShardsContext(ctx, docs, opts...)
}

func (b *sealingBuilder) BuildSegmentsContext(ctx context.Context, docs []*nlp.Document, opts ...qkbfly.Option) ([]*store.Segment, *qkbfly.BuildStats, error) {
	shards, bs, err := b.sys.BuildShardsContext(ctx, docs, opts...)
	segs := make([]*store.Segment, len(shards))
	for i, kb := range shards {
		if kb != nil {
			segs[i] = store.SealSegment(kb, docs[i].ID)
		}
	}
	return segs, bs, err
}

// TestSessionQueryMatchesSnapshotScan: Snapshot.Query over the live
// merge tree must produce exactly the rows of the reference scan over
// the snapshot's materialized KB, for patterns derived from the actual
// corpus content.
func TestSessionQueryMatchesSnapshotScan(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	sess := sys.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	docs := corpus.Docs(f.world.WikiDataset(8))
	if _, _, err := sess.Ingest(ctx, docs[:5]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Ingest(ctx, docs[5:]); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	kb := snap.KB()
	if kb.Len() == 0 {
		t.Fatal("empty KB")
	}

	patterns := []*query.Pattern{
		{Clauses: []query.Clause{{Subject: query.Var("s"), Predicate: query.Var("r"), Object: query.Var("o")}}},
	}
	// Derive constant-bearing patterns from real facts so they hit.
	for i := range kb.Facts() {
		fact := kb.Facts()[i]
		if len(fact.Objects) == 0 || !fact.Subject.IsEntity() {
			continue
		}
		patterns = append(patterns,
			&query.Pattern{Clauses: []query.Clause{{
				Subject: query.Var("s"), Predicate: query.Literal(fact.Relation), Object: query.Var("o"),
			}}},
			&query.Pattern{Clauses: []query.Clause{{
				Subject: query.Entity(fact.Subject.EntityID), Predicate: query.Var("r"), Object: query.Var("o"),
			}}, Tau: 0.4},
			&query.Pattern{Clauses: []query.Clause{
				{Subject: query.Var("a"), Predicate: query.Literal(fact.Relation), Object: query.Var("b")},
				{Subject: query.Var("a"), Predicate: query.Var("r"), Object: query.Var("c")},
			}},
		)
		break
	}
	if len(patterns) == 1 {
		t.Fatal("no entity-subject fact with objects in corpus KB")
	}
	for i, p := range patterns {
		rows, err := snap.Query(p)
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		got := queryKeys(rows.Collect())
		want := queryKeys(query.ScanKB(kb, p))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d (%s): engine %d rows, reference %d rows", i, p.String(), len(got), len(want))
		}
		if i == 0 && len(got) == 0 {
			t.Fatal("full scan pattern matched nothing")
		}
	}

	// Session.Query is the current-version shorthand and honors ctx.
	p := patterns[0]
	rows, err := sess.Query(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := queryKeys(rows.Collect()); len(got) == 0 {
		t.Fatal("Session.Query returned nothing")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.Query(cancelled, p); err == nil {
		t.Fatal("Query with cancelled context succeeded")
	}
}

// TestSnapshotContentID: sessions over identity-sealing builders expose
// equal content IDs for equal content regardless of ingest chunking;
// anonymous fallback sealing yields the uncacheable empty ID.
func TestSnapshotContentID(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	docsA := func() []*nlp.Document { return corpus.Docs(f.world.WikiDataset(6)) }

	s1 := qkbfly.Open(&sealingBuilder{sys: sys}, qkbfly.SessionOptions{})
	defer s1.Close()
	d1 := docsA()
	if _, _, err := s1.Ingest(ctx, d1[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Ingest(ctx, d1[2:]); err != nil {
		t.Fatal(err)
	}
	s2 := qkbfly.Open(&sealingBuilder{sys: sys}, qkbfly.SessionOptions{})
	defer s2.Close()
	if _, _, err := s2.Ingest(ctx, docsA()); err != nil { // one slide, same docs
		t.Fatal(err)
	}
	id1, id2 := s1.Snapshot().ContentID(), s2.Snapshot().ContentID()
	if id1 == "" || id1 != id2 {
		t.Fatalf("content IDs differ for identical content: %q vs %q", id1, id2)
	}
	if s1.Snapshot().Fingerprint() != s2.Snapshot().Fingerprint() {
		t.Fatal("equal ContentID but different fingerprints")
	}
	s2.Evict(d1[0].ID)
	if got := s2.Snapshot().ContentID(); got == "" || got == id1 {
		t.Fatalf("eviction did not change the content ID: %q", got)
	}

	// A bare System seals anonymously: snapshots are uncacheable.
	s3 := sys.OpenSession(qkbfly.SessionOptions{})
	defer s3.Close()
	if _, _, err := s3.Ingest(ctx, docsA()[:2]); err != nil {
		t.Fatal(err)
	}
	if got := s3.Snapshot().ContentID(); got != "" {
		t.Fatalf("anonymous session content ID = %q, want \"\"", got)
	}
}

// TestWatchPattern: a standing filtered watch delivers, across a
// session's life, every row the final version's query answers that any
// published delta introduced — and nothing that does not match.
func TestWatchPattern(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	sess := sys.OpenSession(qkbfly.SessionOptions{Tau: -1})
	docs := corpus.Docs(f.world.WikiDataset(9))

	full := &query.Pattern{Clauses: []query.Clause{{
		Subject: query.Var("s"), Predicate: query.Var("r"), Object: query.Var("o"),
	}}}
	events := sess.WatchPattern(ctx, full)

	var versions []uint64
	for i := 0; i < len(docs); i += 3 {
		snap, _, err := sess.Ingest(ctx, docs[i:i+3])
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, snap.Version())
	}
	final := sess.Snapshot()
	rows, err := final.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	want := queryKeys(rows.Collect())

	sess.Close() // closes the event channel, ending the drain below
	got := map[string]bool{}
	for ev := range events {
		if ev.Version == 0 || ev.Version > final.Version() {
			t.Fatalf("event version %d out of range", ev.Version)
		}
		if len(ev.Row.Bindings) != 3 {
			t.Fatalf("row bindings = %v", ev.Row.Bindings)
		}
		got[ev.Row.Key()] = true
	}
	if len(got) == 0 {
		t.Fatal("standing watch delivered nothing")
	}
	for _, k := range want {
		if !got[k] {
			t.Fatalf("final row %q never delivered to the standing watch", k)
		}
	}

	// Watching a closed session returns a closed channel.
	if _, ok := <-sess.WatchPattern(ctx, full); ok {
		t.Fatal("closed session delivered a pattern event")
	}
}

// TestWatchPatternFiltered: a constant-relation standing pattern only
// ever delivers matching rows, and picks up joins that complete across
// slides.
func TestWatchPatternFiltered(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	sess := sys.OpenSession(qkbfly.SessionOptions{Tau: -1})
	defer sess.Close()
	docs := corpus.Docs(f.world.WikiDataset(8))
	if _, _, err := sess.Ingest(ctx, docs[:4]); err != nil {
		t.Fatal(err)
	}
	// Choose a relation that exists after slide 1.
	kb := sess.Snapshot().KB()
	if kb.Len() == 0 {
		t.Fatal("empty KB after first slide")
	}
	rel := kb.Facts()[0].Relation
	p := &query.Pattern{Clauses: []query.Clause{{
		Subject: query.Var("s"), Predicate: query.Literal(rel), Object: query.Var("o"),
	}}}
	before, err := sess.Query(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	beforeKeys := map[string]bool{}
	for _, k := range queryKeys(before.Collect()) {
		beforeKeys[k] = true
	}

	events := sess.WatchPattern(ctx, p)
	if _, _, err := sess.Ingest(ctx, docs[4:]); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Query(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	afterKeys := map[string]bool{}
	for _, k := range queryKeys(after.Collect()) {
		afterKeys[k] = true
	}

	// The pattern is evaluated on the subscription's side, after Ingest
	// returns; Close lets the published versions drain, then ends the
	// channel.
	sess.Close()
	got := map[string]bool{}
	for ev := range events {
		if !afterKeys[ev.Row.Key()] {
			t.Fatalf("delivered row %q is not an answer of the post-slide query", ev.Row.Key())
		}
		if store.RelKey(ev.Row.Facts[0].Relation) != store.RelKey(rel) {
			t.Fatalf("delivered fact relation %q, want %q", ev.Row.Facts[0].Relation, rel)
		}
		got[ev.Row.Key()] = true
	}
	for k := range afterKeys {
		if !beforeKeys[k] && !got[k] {
			t.Fatalf("row %q new in slide 2 was not delivered", k)
		}
	}
}
