package harness

import (
	"fmt"
	"strings"

	"rog/internal/core"
	"rog/internal/metrics"
	"rog/internal/simnet"
	"rog/internal/trace"
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
	o := EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: []SystemSpec{{core.ROG, 4}},
	}
	results, err := RunEndToEnd(o)
	if err != nil {
		return nil, err
	}
	baseline := results[0]
	rep := structured("Extension: crash-consistent checkpointing — interval vs recovery cost", o)
	rep.Faults = spec
	o.Faults, o.Checkpoint, o.RecoverySecondsPerMB = faults, true, 0.5
	var cells []RecoveryReport
	for _, interval := range []float64{t / 16, t / 4} {
		for _, sync := range []int{1, 64} {
			o.SnapshotEverySeconds, o.WALSyncEvery = interval, sync
			rs, err := RunEndToEnd(o)
			if err != nil {
				return nil, err
			}
			// The outage priced in training iterations against the
			// baseline (clamped: a lucky run can finish at parity).
			lost := max(0, baseline.Iterations-rs[0].Iterations)
			results = append(results, rs[0])
			cells = append(cells, RecoveryReport{interval, sync, rs[0].Recovery, lost})
		}
	}
	rep.fill(results)
	rep.Systems[0].Label = "ROG-4 uninterrupted"
	var b strings.Builder
	fmt.Fprintf(&b, "== Extension: crash-consistent checkpointing (ROG-4, CRUDA outdoors, faults %s) ==\n\n", spec)
	fmt.Fprintf(&b, "uninterrupted baseline: %d iterations, final acc %.4f\n\n",
		baseline.Iterations, baseline.FinalValue)
	rows := make([][]string, 0, len(cells))
	for i := range cells {
		rec, sr := &cells[i], &rep.Systems[i+1]
		sr.Label = fmt.Sprintf("ROG-4 ckpt=%.0fs sync=%d", rec.CheckpointEverySeconds, rec.WALSyncEvery)
		sr.Recovery = rec
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", rec.CheckpointEverySeconds),
			fmt.Sprintf("%d", rec.WALSyncEvery),
			fmt.Sprintf("%.0f", rec.SnapshotBytes/1e3),
			fmt.Sprintf("%.0f", rec.ReplayedBytes/1e3),
			fmt.Sprintf("%d", rec.ReplayedRecords),
			fmt.Sprintf("%d", rec.RowsLost),
			fmt.Sprintf("%.1f", rec.DowntimeSeconds),
			fmt.Sprintf("%d", sr.Iterations),
			fmt.Sprintf("%d", rec.IterationsLost),
			fmt.Sprintf("%.4f", sr.FinalValue),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"ckpt every(s)", "WAL sync", "snap KB", "replay KB", "replay recs",
			"rows lost", "downtime(s)", "iterations", "iters lost", "final acc"},
		rows,
	))
	b.WriteString("\nshorter intervals shrink the WAL replayed at recovery; lazy WAL syncs trade\n")
	b.WriteString("fsync cost for rows lost from the unsynced tail (zero-mass re-stamped on restart)\n")
	rep.Text = b.String()
	return rep, nil
}
