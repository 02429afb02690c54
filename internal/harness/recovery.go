package harness

import (
	"fmt"
	"strings"

	"rog/internal/core"
	"rog/internal/durable"
	"rog/internal/simnet"
)

// This file is the ext-recovery experiment: the parameter server is killed
// halfway through a ROG run and recovers from its durable checkpoint store.
// The sweep prices the checkpointing policy — how often to snapshot and how
// eagerly to fsync the WAL — against what a crash then costs: bytes replayed
// at recovery, rows lost from the unsynced WAL tail, downtime, and training
// iterations the team never got back.

// runExtRecovery runs the uninterrupted baseline plus one faulted run per
// (snapshot interval × WAL sync cadence) cell, once. Every run is ROG-4 on
// the same CRUDA workload, seed and outdoor trace; the faulted runs share one
// servercrash schedule so only the checkpoint policy varies. The structured
// view is the baseline plus one entry per cell, each carrying its policy and
// recovery counters.
func runExtRecovery(s Scale) (*Report, error) {
	s = ablationScale(s)
	t := s.VirtualSeconds
	spec := fmt.Sprintf("servercrash@%.0f+%.0f", t/2, t/16)
	faults, err := simnet.ParseFaultSchedule(spec)
	if err != nil {
		return nil, err
	}
	o, sys := rog4(s), SystemSpec{core.ROG, 4}
	baseline, _, err := run(o.Config(sys), o.NewWorkload())
	if err != nil {
		return nil, fmt.Errorf("harness: ROG-4: %w", err)
	}
	results := []*core.Result{baseline}
	rep := newReport("Extension: crash-consistent checkpointing — interval vs recovery cost", o)
	rep.Faults = spec
	o.Faults = faults
	var cells []RecoveryReport
	for _, interval := range []float64{t / 16, t / 4} {
		for _, sync := range []int{1, 64} {
			// Each faulted run checkpoints into its own in-memory store.
			st, err := durable.Open(durable.NewMemFS(), "ckpt")
			if err != nil {
				return nil, err
			}
			st.SyncEvery = sync
			cfg := o.Config(sys)
			cfg.Durable, cfg.SnapshotEverySeconds, cfg.RecoverySecondsPerMB = st, interval, 0.5
			res, _, err := run(cfg, o.NewWorkload())
			if err != nil {
				return nil, fmt.Errorf("harness: ROG-4: %w", err)
			}
			// The outage priced in training iterations against the
			// baseline (clamped: a lucky run can finish at parity).
			lost := max(0, baseline.Iterations-res.Iterations)
			results = append(results, res)
			cells = append(cells, RecoveryReport{interval, sync, res.Recovery, lost})
		}
	}
	rep.fill(results)
	rep.Systems[0].Label = "ROG-4 uninterrupted"
	for i := range cells {
		rec, sr := &cells[i], &rep.Systems[i+1]
		sr.Label = fmt.Sprintf("ROG-4 ckpt=%.0fs sync=%d", rec.CheckpointEverySeconds, rec.WALSyncEvery)
		sr.Recovery = rec
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Extension: crash-consistent checkpointing (ROG-4, CRUDA outdoors, faults %s) ==\n\n", spec)
	fmt.Fprintf(&b, "uninterrupted baseline: %d iterations, final acc %.4f\n\n",
		rep.Systems[0].Iterations, rep.Systems[0].FinalValue)
	b.WriteString(table(rep.Systems[1:],
		col("ckpt every(s)", "%.0f", func(s SystemReport) any { return s.Recovery.CheckpointEverySeconds }),
		col("WAL sync", "%d", func(s SystemReport) any { return s.Recovery.WALSyncEvery }),
		col("snap KB", "%.0f", func(s SystemReport) any { return s.Recovery.SnapshotBytes / 1e3 }),
		col("replay KB", "%.0f", func(s SystemReport) any { return s.Recovery.ReplayedBytes / 1e3 }),
		col("replay recs", "%d", func(s SystemReport) any { return s.Recovery.ReplayedRecords }),
		col("rows lost", "%d", func(s SystemReport) any { return s.Recovery.RowsLost }),
		col("downtime(s)", "%.1f", func(s SystemReport) any { return s.Recovery.DowntimeSeconds }),
		iterationsCol,
		col("iters lost", "%d", func(s SystemReport) any { return s.Recovery.IterationsLost }),
		finalCol.as("final acc")))
	b.WriteString("\nshorter intervals shrink the WAL replayed at recovery; lazy WAL syncs trade\n")
	b.WriteString("fsync cost for rows lost from the unsynced tail (zero-mass re-stamped on restart)\n")
	rep.Text = b.String()
	return rep, nil
}
