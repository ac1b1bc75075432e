package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
	"qkbfly/internal/stats"
)

// vocabBackend is a pipeline-free Backend whose shard is a function of
// the document's ID and text: a few facts and entities over a small
// shared vocabulary (relations and literals spelled in either case), so
// documents overlap on fact keys and entity IDs and a new text under an
// old ID is new content.
type vocabBackend struct{}

func (vocabBackend) Retrieve(string, string, int) []*nlp.Document { return nil }

func (vocabBackend) BuildShardsContext(ctx context.Context, docs []*nlp.Document, _ ...qkbfly.Option) ([]*store.KB, *qkbfly.BuildStats, error) {
	shards := make([]*store.KB, len(docs))
	for i, d := range docs {
		h := fnv.New64a()
		h.Write([]byte(d.ID + "\x00" + d.Text))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		spell := func(s string) string {
			if rng.Intn(2) == 0 {
				return strings.ToUpper(s)
			}
			return s
		}
		// One object, or now and then two, so a clause may have more than
		// one fact as evidence for the same bindings.
		objects := func() []store.Value {
			objs := []store.Value{{Literal: spell(fmt.Sprintf("lit%d", rng.Intn(3)))}}
			if rng.Intn(4) == 0 {
				objs = append(objs, store.Value{Literal: spell(fmt.Sprintf("lit%d", rng.Intn(3)))})
			}
			return objs
		}
		kb := store.New()
		for j := 0; j < 1+rng.Intn(3); j++ {
			e := fmt.Sprintf("E%d", rng.Intn(5))
			kb.AddEntity(store.EntityRecord{ID: e, Name: "entity " + e, Mentions: []string{e, fmt.Sprintf("m%d", rng.Intn(3))}})
		}
		for j := 0; j < 2+rng.Intn(4); j++ {
			kb.AddFact(store.Fact{
				Subject:    store.Value{EntityID: fmt.Sprintf("E%d", rng.Intn(5))},
				Relation:   spell(fmt.Sprintf("rel%d", rng.Intn(3))),
				Objects:    objects(),
				Confidence: float64(1+rng.Intn(9)) / 10,
				Source:     store.Provenance{DocID: d.ID, SentIndex: j},
			})
		}
		shards[i] = kb
	}
	return shards, &qkbfly.BuildStats{Documents: len(docs), Parallelism: 1, PerDocElapsed: make([]time.Duration, len(docs))}, ctx.Err()
}

// encodeSorted is an answer in a form that does not depend on the order
// rows were found in: the rows in Row.Key order, encoded as /query
// writes them.
func encodeSorted(rows []query.Row) []byte {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b query.Row) int { return strings.Compare(a.Key(), b.Key()) })
	return appendRows(nil, rows)
}

// rowKeys returns the rows' keys, sorted.
func rowKeys(rows []query.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	slices.Sort(keys)
	return keys
}

// TestPatternAnswersAreAFunctionOfIdentity is the property the pattern
// cache's key rests on. Over randomized schedules of ingests, documents
// replaced under their IDs, evictions, adopted compactions and durable
// restarts:
//
//   - any two versions with one identity, whatever their run layouts
//     and plans, answer every pattern with the same rows in Row.Key
//     order, encoded to the same bytes;
//   - every answer the server gives — a hit, an entry maintenance
//     rolled, or a fresh evaluation — has the rows (by Row.Key) of a
//     fresh evaluation. A maintained row may cite other evidence than a
//     fresh one would: evidence is not part of a row's identity.
//
// The vocabulary spells literals in either case and joins on them, so
// the spelling a row binds must come from its evidence, not its plan.
func TestPatternAnswersAreAFunctionOfIdentity(t *testing.T) {
	ctx := context.Background()
	var patterns []*query.Pattern
	for _, src := range []string{
		`?s rel0 ?o`, `?s rel1 ?o ; ?s rel2 ?x`, `e:E1 ?r ?o`, `?s REL2 lit1`,
		`?s rel0 ?o ; ?t rel1 ?o`, `?t rel1 ?o ; ?s rel0 ?o`, // joins on a literal
	} {
		p, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, p)
	}
	restores, repeats := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		label := fmt.Sprintf("seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		counters := stats.NewCounterSet()
		srv := New(vocabBackend{}, Options{})
		seen := make(map[store.Identity][][]byte)

		var (
			sess *qkbfly.Session
			p    *persist.Store
			stop func()
		)
		open := func() {
			var rec *persist.Recovered
			var err error
			if p, rec, err = persist.Open(dir, persist.Options{Logf: t.Logf}); err != nil {
				t.Fatalf("%s: open store: %v", label, err)
			}
			opts := qkbfly.SessionOptions{MaxDocuments: 5, Persist: p, Counters: counters}
			if rec.Version == 0 {
				sess = srv.OpenSession(opts)
			} else {
				st := qkbfly.SessionState{Version: rec.Version, NextSeq: rec.NextSeq}
				for _, d := range rec.Docs {
					st.Docs = append(st.Docs, qkbfly.DocState{Key: d.Key, Seq: d.Seq, Seg: d.Seg})
				}
				if sess, err = qkbfly.Restore(srv, opts, st); err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
			}
			stop = srv.MaintainPatterns(ctx, sess)
		}
		closeAll := func() {
			stop()
			sess.Close()
			p.Flush()
			if err := p.Close(); err != nil {
				t.Fatalf("%s: close store: %v", label, err)
			}
		}
		open()

		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				// A document from a pool of six, in one of three texts: a
				// live ID is replaced, an evicted one may come back as it was.
				id := fmt.Sprintf("d%d", rng.Intn(6))
				sess.Evict(id)
				srv.InvalidateShards(id)
				doc := &nlp.Document{ID: id, Title: id, Text: fmt.Sprintf("text %d", rng.Intn(3))}
				if _, _, err := sess.Ingest(ctx, []*nlp.Document{doc}); err != nil {
					t.Fatalf("%s: ingest: %v", label, err)
				}
			case r < 7:
				if live := sess.Docs(); len(live) > 0 {
					sess.Evict(live[rng.Intn(len(live))])
				}
			case r < 9:
				// No change: the current version is queried again.
			default:
				closeAll()
				open()
				restores++
			}

			snap := sess.Snapshot()
			answers := make([][]byte, len(patterns))
			for i, pat := range patterns {
				served, _, err := srv.QueryPattern(ctx, snap, pat)
				if err != nil {
					t.Fatal(err)
				}
				it, err := snap.Query(pat)
				if err != nil {
					t.Fatal(err)
				}
				fresh := it.Collect()
				answers[i] = encodeSorted(fresh)
				if got, want := rowKeys(served), rowKeys(fresh); !slices.Equal(got, want) {
					t.Fatalf("%s step %d v%d %s: served rows %q, fresh %q", label, step, snap.Version(), pat, got, want)
				}
			}
			if prev, ok := seen[snap.Identity()]; ok {
				repeats++
				for i := range patterns {
					if !bytes.Equal(prev[i], answers[i]) {
						t.Fatalf("%s step %d: identity %.16s… answers %s with\n%s\nand earlier with\n%s",
							label, step, snap.ContentID(), patterns[i], answers[i], prev[i])
					}
				}
			}
			seen[snap.Identity()] = answers
		}
		closeAll()
		if counters.Get(qkbfly.CounterMaintCompactions) == 0 {
			t.Errorf("%s: no compaction was adopted; the schedule does not cover adoption", label)
		}
	}
	if restores == 0 || repeats == 0 {
		t.Errorf("restores %d, repeated identities %d: the schedules do not cover restarts and revisited content", restores, repeats)
	}
}
