package qkbfly_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
)

// restoreState adapts a persist recovery into Restore's input.
func restoreState(rec *persist.Recovered) qkbfly.SessionState {
	st := qkbfly.SessionState{Version: rec.Version, NextSeq: rec.NextSeq}
	for _, d := range rec.Docs {
		st.Docs = append(st.Docs, qkbfly.DocState{Key: d.Key, Seq: d.Seq, Seg: d.Seg})
	}
	return st
}

// TestSessionRestartEquivalence is the restart property test: a session
// under a randomized ingest/evict schedule, persisted, sealed, and
// reopened from disk must reproduce the exact pre-restart version
// fingerprint from demoted segments — and keep matching the one-shot
// batch build as ingestion continues after the restart.
func TestSessionRestartEquivalence(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	const nDocs = 14

	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		docs := corpus.Docs(f.world.WikiDataset(nDocs))

		dir := t.TempDir()
		p, rec, err := persist.Open(dir, persist.Options{Logf: t.Logf})
		if err != nil {
			t.Fatalf("seed %d: open persist: %v", seed, err)
		}
		if rec.Version != 0 {
			t.Fatalf("seed %d: fresh dir recovered version %d", seed, rec.Version)
		}
		sess := sys.OpenSession(qkbfly.SessionOptions{Persist: p})

		// Randomized schedule over the first 10 documents.
		next := 0
		for next < 10 {
			if live := sess.Docs(); len(live) > 2 && rng.Intn(3) == 0 {
				sess.Evict(live[rng.Intn(len(live))])
				continue
			}
			end := next + 1 + rng.Intn(3)
			if end > 10 {
				end = 10
			}
			if _, _, err := sess.Ingest(ctx, docs[next:end]); err != nil {
				t.Fatalf("seed %d: ingest: %v", seed, err)
			}
			next = end
		}

		preSnap := sess.Snapshot()
		want := preSnap.Fingerprint()
		wantVersion := preSnap.Version()
		wantDocs := fmt.Sprint(sess.Docs())

		// Graceful shutdown: drain the session, flush writeback, seal.
		sess.Close()
		p.Flush()
		p.Seal(preSnap.Identity())
		if err := p.Close(); err != nil {
			t.Fatalf("seed %d: close persist: %v", seed, err)
		}

		// --- restart ---
		p2, rec2, err := persist.Open(dir, persist.Options{Logf: t.Logf})
		if err != nil {
			t.Fatalf("seed %d: reopen persist: %v", seed, err)
		}
		if !rec2.Sealed {
			t.Fatalf("seed %d: sealed store not recovered as sealed", seed)
		}
		sess2, err := qkbfly.Restore(sys, qkbfly.SessionOptions{Persist: p2}, restoreState(rec2))
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		snap := sess2.Snapshot()
		if snap.Version() != wantVersion {
			t.Fatalf("seed %d: restored version %d, want %d", seed, snap.Version(), wantVersion)
		}
		if got := fmt.Sprint(sess2.Docs()); got != wantDocs {
			t.Fatalf("seed %d: restored docs %s, want %s", seed, got, wantDocs)
		}
		got := snap.Fingerprint()
		if got != want {
			t.Fatalf("seed %d: restored fingerprint differs from pre-restart", seed)
		}
		if rec2.Identity != store.TextIdentity(got) || snap.Identity() != rec2.Identity {
			t.Fatalf("seed %d: seal identity does not verify", seed)
		}

		// History horizon: readers older than the restart must be told to
		// re-baseline; the current version replays clean and empty.
		if _, _, ok := sess2.FactsSince(wantVersion - 1); ok {
			t.Fatalf("seed %d: FactsSince(%d) across restart claimed completeness", seed, wantVersion-1)
		}
		if evs, cur, ok := sess2.FactsSince(wantVersion); !ok || cur != wantVersion || len(evs) != 0 {
			t.Fatalf("seed %d: FactsSince(current)=(%d events, cur=%d, ok=%v)", seed, len(evs), cur, ok)
		}
		if _, _, ok := sess2.DeltaSince(wantVersion - 1); ok {
			t.Fatalf("seed %d: DeltaSince across restart claimed completeness", seed)
		}

		// Continued ingestion after restart must keep the batch-equivalence
		// invariant: final KB == one-shot build over surviving docs in
		// arrival order.
		if _, _, err := sess2.Ingest(ctx, docs[10:nDocs]); err != nil {
			t.Fatalf("seed %d: post-restart ingest: %v", seed, err)
		}
		surviving := pickByID(docs, sess2.Docs())
		wantKB, _, err := sys.BuildKBContext(ctx, cloneDocs(surviving))
		if err != nil {
			t.Fatalf("seed %d: batch build: %v", seed, err)
		}
		if sess2.Snapshot().Fingerprint() != wantKB.Fingerprint() {
			t.Fatalf("seed %d: post-restart session diverged from batch build", seed)
		}
		sess2.Close()
		p2.Flush()
		p2.Close()
	}
}

// TestSessionRestoreQueryMatches: pattern queries against a restored
// (fully demoted) session must return byte-identical rows to the
// pre-restart session.
func TestSessionRestoreQueryMatches(t *testing.T) {
	f := getFixture(t)
	sys := qkbfly.New(f.res, qkbfly.DefaultConfig())
	ctx := context.Background()
	docs := corpus.Docs(f.world.WikiDataset(8))

	dir := t.TempDir()
	p, _, err := persist.Open(dir, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.OpenSession(qkbfly.SessionOptions{Persist: p})
	if _, _, err := sess.Ingest(ctx, docs); err != nil {
		t.Fatal(err)
	}
	pat, err := query.Parse("?s ?r ?o")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Snapshot().Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	collected := rows.Collect()
	if len(collected) == 0 {
		t.Fatal("reference query returned no rows; test is vacuous")
	}
	wantRows := fmt.Sprint(collected)
	id := sess.Snapshot().Identity()
	sess.Close()
	p.Flush()
	p.Seal(id)
	p.Close()

	p2, rec, err := persist.Open(dir, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	sess2, err := qkbfly.Restore(sys, qkbfly.SessionOptions{Persist: p2}, restoreState(rec))
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := sess2.Snapshot().Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows2.Collect()); got != wantRows {
		t.Fatalf("restored query rows differ\n got %s\nwant %s", got, wantRows)
	}
	sess2.Close()
}

// pickByID selects documents by ID in the given order.
func pickByID(docs []*nlp.Document, ids []string) []*nlp.Document {
	byID := make(map[string]*nlp.Document, len(docs))
	for _, d := range docs {
		byID[d.ID] = d
	}
	out := make([]*nlp.Document, 0, len(ids))
	for _, id := range ids {
		if d, ok := byID[id]; ok {
			out = append(out, d)
		}
	}
	return out
}

// cloneDocs deep-copies documents so a reference batch build does not
// disturb annotations the session runs already made.
func cloneDocs(docs []*nlp.Document) []*nlp.Document {
	out := make([]*nlp.Document, len(docs))
	for i, d := range docs {
		out[i] = d.Clone()
	}
	return out
}
