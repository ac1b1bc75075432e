package qkbfly

// Internal tests for the deferred-compaction maintenance path: the
// invariants that matter when compaction is asynchronous — the run-count
// bound holds (background adoption or inline backstop), adopted trees
// are content-identical to their sources, and a job whose snapshot was
// superseded mid-flight can never publish into a newer version.

import (
	"context"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/sched"
	"qkbfly/internal/stats"
)

// maintBuilder is a deterministic, pipeline-free ShardBuilder: one tiny
// KB shard per document, keyed by the document ID. It keeps maintenance
// tests fast and precise — the invariants under test live entirely in
// the tree / session / scheduler layers.
type maintBuilder struct{}

func (maintBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error) {
	shards := make([]*store.KB, len(docs))
	for i, d := range docs {
		// Shard content must depend only on the document (determinism
		// across batch splits), so the per-doc confidence is derived from
		// the ID, never the batch position.
		var n int
		fmt.Sscanf(d.ID, "m%03d", &n)
		kb := store.New()
		kb.AddEntity(store.EntityRecord{ID: d.ID, Name: d.ID, Types: []string{"doc"}})
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: d.ID},
			Relation:   "mentions",
			Objects:    []store.Value{{Literal: d.Text}},
			Confidence: 0.5 + float64(n%5)/10,
			Source:     store.Provenance{DocID: d.ID},
		})
		// A shared key across documents so deferral also exercises
		// cross-run winner resolution (later docs shadow earlier ones).
		kb.AddFact(store.Fact{
			Subject:    store.Value{EntityID: "corpus"},
			Relation:   "latest",
			Objects:    []store.Value{{Literal: "doc"}},
			Confidence: 0.9,
			Source:     store.Provenance{DocID: d.ID},
		})
		shards[i] = kb
	}
	return shards, &BuildStats{Parallelism: 1, PerDocElapsed: make([]time.Duration, len(docs))}, nil
}

func maintDocs(n, from int) []*nlp.Document {
	docs := make([]*nlp.Document, n)
	for i := range docs {
		docs[i] = &nlp.Document{ID: fmt.Sprintf("m%03d", from+i), Text: fmt.Sprintf("text %d", from+i)}
	}
	return docs
}

// TestMaintSchedCompactAdoptsAndMatchesPush: a deferred-compaction
// session with a Maintainer converges to the same KB fingerprint as a
// plain inline-compaction session over the same feed, within the
// O(log W) run bound — background compaction restores the invariant
// without changing content, and the fingerprint-identity verify gate
// passes.
func TestMaintSchedCompactAdoptsAndMatchesPush(t *testing.T) {
	ctx := context.Background()
	counters := stats.NewCounterSet()
	sc := sched.New(sched.Options{Counters: counters})
	defer sc.Close()

	deferred := Open(maintBuilder{}, SessionOptions{DeferCompaction: true, Counters: counters})
	defer deferred.Close()
	m := NewMaintainer(deferred, sc, MaintainerOptions{Counters: counters})
	defer m.Close()
	plain := Open(maintBuilder{}, SessionOptions{})
	defer plain.Close()

	const n = 24
	for i := 0; i < n; i++ {
		docs := maintDocs(1, i)
		if _, _, err := deferred.Ingest(ctx, docs); err != nil {
			t.Fatalf("deferred ingest %d: %v", i, err)
		}
		if _, _, err := plain.Ingest(ctx, maintDocs(1, i)); err != nil {
			t.Fatalf("plain ingest %d: %v", i, err)
		}
	}
	// With no new ingests, every submitted compaction has run to
	// completion (adopted or refused) once Drain returns.
	sc.Drain()

	if got := counters.Get(CounterMaintCompactions); got == 0 {
		t.Fatal("no background compaction was ever adopted")
	}
	if got := counters.Get(CounterMaintVerifyFails); got != 0 {
		t.Fatalf("verify failures = %d, want 0", got)
	}
	snap, want := deferred.Snapshot(), plain.Snapshot()
	if snap.Fingerprint() != want.Fingerprint() {
		t.Fatal("deferred+compacted KB fingerprint differs from inline-compaction session")
	}
	// The adopted layout obeys the same O(log W) bound Push maintains;
	// only the loose tail past the last adoption — fewer runs than the
	// compaction trigger, or a job would have been submitted — exceeds it.
	if got, bound := snap.Tree().RunCount(), bits.Len(n)+minLooseRuns-1; got > bound {
		t.Fatalf("deferred tree still has %d runs after maintenance (plain has %d, bound %d)", got, want.Tree().RunCount(), bound)
	}
	// Cross-run winners survive deferral: the shared "latest" key must
	// resolve identically on the loose/compacted tree and the plain one.
	lf, ok1 := snap.Tree().Lookup(store.FactKey(&store.Fact{Subject: store.Value{EntityID: "corpus"}, Relation: "latest", Objects: []store.Value{{Literal: "doc"}}}))
	pf, ok2 := want.Tree().Lookup(store.FactKey(&store.Fact{Subject: store.Value{EntityID: "corpus"}, Relation: "latest", Objects: []store.Value{{Literal: "doc"}}}))
	if !ok1 || !ok2 || lf.Source != pf.Source || lf.Confidence != pf.Confidence {
		t.Fatalf("cross-run winner diverged under deferral: %+v vs %+v", lf, pf)
	}
}

// TestMaintCompactSupersededMidJob: a compaction computed against a
// pinned snapshot must be refused once the session has moved on — the
// stale layout is discarded and counted, and the newer version's content
// is untouched.
func TestMaintCompactSupersededMidJob(t *testing.T) {
	ctx := context.Background()
	counters := stats.NewCounterSet()
	s := Open(maintBuilder{}, SessionOptions{DeferCompaction: true, Counters: counters})
	defer s.Close()

	if _, _, err := s.Ingest(ctx, maintDocs(6, 0)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	snap := s.Snapshot()
	compacted, changed := snap.Tree().CompactContext(ctx)
	if !changed {
		t.Fatal("six loose runs did not compact")
	}

	// The session moves on before the job can adopt.
	if _, _, err := s.Ingest(ctx, maintDocs(1, 6)); err != nil {
		t.Fatalf("superseding ingest: %v", err)
	}
	if s.adoptCompacted(snap, compacted) {
		t.Fatal("stale compaction was adopted over a newer version")
	}
	if got := s.Snapshot().Tree().Len(); got != 7 {
		t.Fatalf("live tree has %d docs after refused adoption, want 7", got)
	}

	// The Maintainer job body counts the refusal the same way.
	m := &Maintainer{s: s, opt: MaintainerOptions{Counters: counters}}
	if err := m.compact(ctx, snap); err != nil {
		t.Fatalf("superseded compact job errored: %v", err)
	}
	if got := counters.Get(CounterMaintSuperseded); got == 0 {
		t.Fatal("superseded adoption not counted")
	}

	// Adoption against the CURRENT snapshot still works.
	cur := s.Snapshot()
	curCompacted, changed := cur.Tree().Compact()
	if changed && !s.adoptCompacted(cur, curCompacted) {
		t.Fatal("fresh compaction refused")
	}
	if s.Snapshot().Version() != cur.Version() {
		t.Fatal("adoption bumped the version")
	}
	if s.Snapshot().Fingerprint() != cur.Fingerprint() {
		t.Fatal("adoption changed content")
	}
}

// TestMaintCompactBackstopBoundsRuns: with deferral on and no Maintainer
// attached, the inline backstop caps read fan-in at the compaction debt
// and counts itself.
func TestMaintCompactBackstopBoundsRuns(t *testing.T) {
	ctx := context.Background()
	counters := stats.NewCounterSet()
	s := Open(maintBuilder{}, SessionOptions{DeferCompaction: true, Counters: counters})
	defer s.Close()

	const n = 3 * compactionDebt
	for i := 0; i < n; i++ {
		if _, _, err := s.Ingest(ctx, maintDocs(1, i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if got, bound := s.Snapshot().Tree().RunCount(), bits.Len(uint(i+1))+compactionDebt-1; got > bound {
			t.Fatalf("ingest %d: %d runs exceed debt bound %d", i, got, bound)
		}
	}
	if got := counters.Get(CounterCompactBackstops); got != 3 {
		t.Fatalf("backstop compactions = %d, want 3", got)
	}
	plain := Open(maintBuilder{}, SessionOptions{})
	defer plain.Close()
	if _, _, err := plain.Ingest(ctx, maintDocs(n, 0)); err != nil {
		t.Fatalf("plain ingest: %v", err)
	}
	if s.Snapshot().Fingerprint() != plain.Snapshot().Fingerprint() {
		t.Fatal("backstop-compacted KB differs from inline-compaction build")
	}
}

// corruptBuilder is maintBuilder whose merge function — the one the
// session's tree compacts with — breaks its output. Each document also
// names a shared "corpus" entity after itself, so folding two runs in
// the wrong order changes the merged record's name, and gives it a
// mention of its own, which a merge that drops one loses.
type corruptBuilder struct {
	maintBuilder
	corrupt func(a, b *store.Segment) *store.Segment
}

func (c corruptBuilder) BuildShardsContext(ctx context.Context, docs []*nlp.Document, opts ...Option) ([]*store.KB, *BuildStats, error) {
	shards, bs, err := c.maintBuilder.BuildShardsContext(ctx, docs, opts...)
	for i, kb := range shards {
		kb.AddEntity(store.EntityRecord{ID: "corpus", Name: docs[i].ID, Mentions: []string{"corpus " + docs[i].ID}})
	}
	return shards, bs, err
}

func (c corruptBuilder) MergeSegments(a, b *store.Segment) *store.Segment { return c.corrupt(a, b) }

// resealed merges a and b correctly, then reseals the result with edit
// applied to its facts and entity records.
func resealed(a, b *store.Segment, edit func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord)) *store.Segment {
	m := store.MergeSegments(a, b)
	kb := store.MaterializeRuns([]*store.Segment{m})
	var ents []store.EntityRecord
	for _, e := range kb.Entities() {
		rec := *e
		rec.Mentions = append([]string(nil), e.Mentions...)
		ents = append(ents, rec)
	}
	facts, ents := edit(append([]store.Fact(nil), kb.Facts()...), ents)
	out := store.New()
	for _, e := range ents {
		out.AddEntity(e)
	}
	for _, f := range facts {
		out.AddFact(f)
	}
	return store.SealSegment(out, m.ID())
}

// TestMaintRefusesCorruptCompaction: a maintainer whose compactions go
// through a broken merge — one that drops a fact, swaps its inputs, or
// drops an entity mention — fails verification on every job and never
// swaps the session's snapshot: the published trees stay loose, and the
// content matches a session built with the correct merge.
func TestMaintRefusesCorruptCompaction(t *testing.T) {
	corruptions := map[string]func(a, b *store.Segment) *store.Segment{
		"drop-fact": func(a, b *store.Segment) *store.Segment {
			return resealed(a, b, func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord) {
				return facts[1:], ents
			})
		},
		"swap-inputs": func(a, b *store.Segment) *store.Segment { return store.MergeSegments(b, a) },
		"drop-mention": func(a, b *store.Segment) *store.Segment {
			return resealed(a, b, func(facts []store.Fact, ents []store.EntityRecord) ([]store.Fact, []store.EntityRecord) {
				for i := range ents {
					if n := len(ents[i].Mentions); n > 0 {
						ents[i].Mentions = ents[i].Mentions[:n-1]
						break
					}
				}
				return facts, ents
			})
		},
	}
	ctx := context.Background()
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			counters := stats.NewCounterSet()
			sc := sched.New(sched.Options{Counters: counters})
			defer sc.Close()
			s := Open(corruptBuilder{corrupt: corrupt}, SessionOptions{DeferCompaction: true, Counters: counters})
			defer s.Close()
			m := NewMaintainer(s, sc, MaintainerOptions{Counters: counters})
			defer m.Close()
			plain := Open(corruptBuilder{corrupt: store.MergeSegments}, SessionOptions{})
			defer plain.Close()

			const n = 12 // below compactionDebt: no inline backstop merges
			for i := 0; i < n; i++ {
				published, _, err := s.Ingest(ctx, maintDocs(1, i))
				if err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				if _, _, err := plain.Ingest(ctx, maintDocs(1, i)); err != nil {
					t.Fatalf("plain ingest %d: %v", i, err)
				}
				sc.Drain() // the version's job has verified and been refused
				if s.Snapshot() != published {
					t.Fatalf("ingest %d: the published snapshot was swapped", i)
				}
			}
			if got := counters.Get(CounterMaintVerifyFails); got == 0 {
				t.Fatal("no corrupted compaction failed verification")
			}
			if got := counters.Get(CounterMaintCompactions); got != 0 {
				t.Fatalf("%d corrupted compactions were adopted", got)
			}
			snap := s.Snapshot()
			if got := snap.Tree().RunCount(); got != n {
				t.Fatalf("tree has %d runs, want %d loose leaves", got, n)
			}
			if snap.Fingerprint() != plain.Snapshot().Fingerprint() {
				t.Fatal("session content differs from the correctly merged build")
			}
		})
	}
}
