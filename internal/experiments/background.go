package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"qkbfly"
	"qkbfly/internal/eval"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/sched"
)

// Batch evaluation sweeps routed through the background scheduler: each
// threshold of a τ sweep becomes one scheduler job over a PINNED session
// snapshot. Because snapshots are immutable versions, a sweep started at
// version v keeps reading v even while the live session ingests past it —
// the analytical answer is internally consistent (every point measured
// against the same KB) and the ingest path never blocks on analysis.

// SweepPoint is one threshold of a snapshot sweep.
type SweepPoint struct {
	Tau      float64
	Facts    int
	MeanConf float64
	// Precision/CI are filled when the sweep has an Assessor.
	Precision float64
	CI        float64
}

// SnapshotSweep is the result of one pinned-snapshot threshold sweep.
type SnapshotSweep struct {
	// Version is the snapshot version every point was measured against.
	Version uint64
	// Fingerprint identifies the exact KB content all points saw.
	Fingerprint string
	Points      []SweepPoint
}

// SweepOptions configure RunSnapshotSweep.
type SweepOptions struct {
	// Taus are the confidence thresholds to sweep; nil means the §2.1
	// ablation ladder {0, 0.25, 0.5, 0.75, 0.9}.
	Taus []float64
	// Assessor, when non-nil, scores each point's facts against ground
	// truth (sample size and seed as in the ablation runner).
	Assessor   *eval.Assessor
	SampleSize int
}

// RunSnapshotSweep evaluates every threshold as a scheduler job over one
// pinned snapshot and blocks until all points complete (or ctx cancels).
// The snapshot's KB is materialized once, up front, and shared read-only
// across jobs.
func RunSnapshotSweep(ctx context.Context, sc *sched.Scheduler, snap *qkbfly.Snapshot, opt SweepOptions) (*SnapshotSweep, error) {
	taus := opt.Taus
	if taus == nil {
		taus = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	kb := snap.KB()
	res := &SnapshotSweep{
		Version:     snap.Version(),
		Fingerprint: kb.Fingerprint(),
		Points:      make([]SweepPoint, len(taus)),
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for i, tau := range taus {
		i, tau := i, tau
		wg.Add(1)
		ok := sc.Submit(sched.Job{
			Run: func(jctx context.Context) error {
				defer wg.Done()
				if err := jctx.Err(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return err
				}
				p := sweepPoint(kb, tau, opt)
				mu.Lock()
				res.Points[i] = p
				mu.Unlock()
				return nil
			},
		})
		if !ok {
			wg.Done()
			mu.Lock()
			errs = append(errs, fmt.Errorf("scheduler closed; tau=%.2f not submitted", tau))
			mu.Unlock()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return res, nil
}

// sweepPoint measures one threshold over the shared KB.
func sweepPoint(kb *store.KB, tau float64, opt SweepOptions) SweepPoint {
	facts := kb.Search(store.Query{MinConf: tau})
	p := SweepPoint{Tau: tau, Facts: len(facts)}
	var sum float64
	for i := range facts {
		sum += facts[i].Confidence
	}
	if len(facts) > 0 {
		p.MeanConf = sum / float64(len(facts))
	}
	if opt.Assessor != nil {
		n := opt.SampleSize
		if n <= 0 {
			n = 100
		}
		a := opt.Assessor.Assess(facts, n, int64(900+int(tau*100)))
		p.Precision, p.CI = a.Precision, a.CI
	}
	return p
}

// String renders the sweep like the ablation tables.
func (r *SnapshotSweep) String() string {
	header := []string{"tau", "#Facts", "MeanConf"}
	assessed := false
	for _, p := range r.Points {
		if p.CI != 0 || p.Precision != 0 {
			assessed = true
		}
	}
	if assessed {
		header = append(header, "Precision")
	}
	pts := append([]SweepPoint(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Tau < pts[j].Tau })
	var rows [][]string
	for _, p := range pts {
		row := []string{
			fmt.Sprintf("%.2f", p.Tau),
			fmt.Sprintf("%d", p.Facts),
			fmt.Sprintf("%.3f", p.MeanConf),
		}
		if assessed {
			row = append(row, pm(p.Precision, p.CI))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Snapshot sweep @ version %d\n%s", r.Version, renderTable(header, rows))
}
