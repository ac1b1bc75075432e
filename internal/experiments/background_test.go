package experiments

import (
	"context"
	"testing"

	"qkbfly"
	"qkbfly/internal/corpus"
	"qkbfly/internal/sched"
)

// TestSchedSnapshotSweepPinnedVersion: a sweep routed through the
// scheduler reads ONE pinned version even while the live session ingests
// past it, and its points are mutually consistent (monotone under τ).
func TestSchedSnapshotSweepPinnedVersion(t *testing.T) {
	env := getEnv(t)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	sess := sys.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	ctx := context.Background()

	docs := corpus.Docs(env.World.WikiDataset(8))
	if _, _, err := sess.Ingest(ctx, docs[:4]); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	pinnedV := snap.Version()
	pinnedFP := snap.KB().Fingerprint()

	sc := sched.New(sched.Options{Workers: 2})
	defer sc.Close()

	// Race the sweep against further ingest: the sweep must not observe
	// any of it.
	ingested := make(chan error, 1)
	go func() {
		_, _, err := sess.Ingest(ctx, docs[4:])
		ingested <- err
	}()
	res, err := RunSnapshotSweep(ctx, sc, snap, SweepOptions{
		Assessor: env.Assessor, SampleSize: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}

	if res.Version != pinnedV {
		t.Fatalf("sweep version %d, pinned %d", res.Version, pinnedV)
	}
	if res.Fingerprint != pinnedFP {
		t.Fatal("sweep fingerprint differs from the pinned snapshot's KB")
	}
	if live := sess.Snapshot().Version(); live <= pinnedV {
		t.Fatalf("live session did not advance past pinned version %d", pinnedV)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Facts == 0 {
		t.Fatal("tau=0 point saw no facts")
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Facts > res.Points[i-1].Facts {
			t.Fatalf("facts not monotone under tau: %+v", res.Points)
		}
	}
	// All points against one KB: the tau=0 point counts every fact the
	// pinned version holds.
	if res.Points[0].Facts != snap.KB().Len() {
		t.Fatalf("tau=0 facts %d != pinned KB len %d", res.Points[0].Facts, snap.KB().Len())
	}
	if s := res.String(); s == "" {
		t.Fatal("empty rendering")
	}
}

// TestSchedSnapshotSweepClosedScheduler: submitting against a closed
// scheduler fails loudly instead of hanging.
func TestSchedSnapshotSweepClosedScheduler(t *testing.T) {
	env := getEnv(t)
	sys := env.System(qkbfly.Joint, qkbfly.Greedy)
	sess := sys.OpenSession(qkbfly.SessionOptions{})
	defer sess.Close()
	if _, _, err := sess.Ingest(context.Background(), corpus.Docs(env.World.WikiDataset(2))); err != nil {
		t.Fatal(err)
	}
	sc := sched.New(sched.Options{})
	sc.Close()
	if _, err := RunSnapshotSweep(context.Background(), sc, sess.Snapshot(), SweepOptions{}); err == nil {
		t.Fatal("sweep against a closed scheduler reported no error")
	}
}
