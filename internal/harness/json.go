package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"rog/internal/core"
	"rog/internal/lossnet"
	"rog/internal/metrics"
	"rog/internal/obs"
	"rog/internal/trace"
)

// This file is the machine-readable counterpart of the report tables:
// `rogbench -json` runs one of the end-to-end figures and serializes the
// full per-system results — composition, energy, time/energy-to-target,
// churn counters and the complete checkpoint series — so downstream
// plotting and regression tooling never has to scrape the text tables.

// Report is one experiment's results in JSON form.
type Report struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Scale      string `json:"scale"`
	Paradigm   string `json:"paradigm"`
	Env        string `json:"env"`
	Faults     string `json:"faults,omitempty"`
	// Loss names the injected packet-loss channel ("ge:0.05" style) and
	// Reliability the recovery mode, for runs over a lossy channel.
	Loss        string `json:"loss,omitempty"`
	Reliability string `json:"reliability,omitempty"`
	// Metric names the quality axis; Increasing tells whether larger is
	// better (accuracy) or worse (trajectory error).
	Metric     string `json:"metric"`
	Increasing bool   `json:"increasing"`
	// Target is the common quality level used for the time/energy-to-target
	// columns: the loosest best-over-series value across systems, so every
	// system can reach it (same rule as the text tables).
	Target  float64        `json:"quality_target"`
	Systems []SystemReport `json:"systems"`
}

// SystemReport is one compared system's slice of a Report.
type SystemReport struct {
	Label       string  `json:"label"`
	Strategy    string  `json:"strategy"`
	Threshold   int     `json:"threshold"`
	Iterations  int     `json:"iterations"`
	FinalValue  float64 `json:"final_value"`
	TotalJoules float64 `json:"total_joules"`
	StallFrac   float64 `json:"stall_frac"`
	// MaxStaleness is the largest merge lead the run observed — the
	// empirical RSP bound (0 is omitted).
	MaxStaleness   int64   `json:"max_staleness,omitempty"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	StallSeconds   float64 `json:"stall_seconds"`
	// SecondsToTarget / JoulesToTarget are nil when the system never
	// reached the common target.
	SecondsToTarget *float64        `json:"seconds_to_target,omitempty"`
	JoulesToTarget  *float64        `json:"joules_to_target,omitempty"`
	Churn           *ChurnReport    `json:"churn,omitempty"`
	Loss            *LossReport     `json:"loss,omitempty"`
	Recovery        *RecoveryReport `json:"recovery,omitempty"`
	// Serve carries one serve-sweep cell's latency/throughput/staleness
	// metrics (the serve experiment only).
	Serve *ServeCellReport `json:"serve,omitempty"`
	// CritPath is the causal critical-path decomposition of this system's
	// run: per-worker compute/comm/stall/merge segments, the top blocking
	// (worker, unit) pairs and the stall duration quantiles.
	CritPath *obs.CritReport `json:"critpath,omitempty"`
	Series   []SeriesPoint   `json:"series"`
}

// ChurnReport mirrors metrics.ChurnStats with stable JSON names.
type ChurnReport struct {
	Disconnects  int     `json:"disconnects"`
	Reconnects   int     `json:"reconnects"`
	RowsResynced int     `json:"rows_resynced"`
	DetachStall  float64 `json:"detach_stall_seconds"`
}

// RecoveryReport carries one sweep cell's checkpoint policy and what the
// scripted server crash cost under it (mirrors metrics.RecoveryStats, plus
// the policy knobs and the iteration deficit against the baseline).
type RecoveryReport struct {
	CheckpointEverySeconds float64 `json:"checkpoint_every_seconds"`
	WALSyncEvery           int     `json:"wal_sync_every"`
	Recoveries             int     `json:"recoveries"`
	ReplayedRecords        int     `json:"replayed_records"`
	ReplayedBytes          float64 `json:"replayed_bytes"`
	SnapshotBytes          float64 `json:"snapshot_bytes"`
	RowsLost               int     `json:"rows_lost"`
	DowntimeSeconds        float64 `json:"downtime_seconds"`
	IterationsLost         int     `json:"iterations_lost"`
}

// LossReport mirrors metrics.LossStats with stable JSON names.
type LossReport struct {
	RowsLostFolded    int     `json:"rows_lost_folded"`
	RowsRetransmitted int     `json:"rows_retransmitted"`
	RetransmitBytes   float64 `json:"retransmit_bytes"`
}

// SeriesPoint is one quality checkpoint.
type SeriesPoint struct {
	Iter   int     `json:"iter"`
	Time   float64 `json:"time_seconds"`
	Energy float64 `json:"energy_joules"`
	Value  float64 `json:"value"`
}

// jsonExperiments maps the JSON-exportable experiment ids to their run
// options. Only the end-to-end comparisons export cleanly — the micro and
// sensitivity experiments have bespoke shapes and keep their text reports.
func jsonExperiments(id string, s Scale) (EndToEndOptions, Report, error) {
	switch id {
	case "fig1":
		return EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s},
			Report{Experiment: id, Title: "Fig. 1: CRUDA, outdoors",
				Paradigm: "cruda", Env: "outdoor", Metric: "accuracy", Increasing: true}, nil
	case "fig6":
		return EndToEndOptions{Paradigm: "cruda", Env: trace.Indoor, Scale: s},
			Report{Experiment: id, Title: "Fig. 6: CRUDA, indoors",
				Paradigm: "cruda", Env: "indoor", Metric: "accuracy", Increasing: true}, nil
	case "fig7":
		return EndToEndOptions{Paradigm: "crimp", Env: trace.Outdoor, Scale: s},
			Report{Experiment: id, Title: "Fig. 7: CRIMP, outdoors",
				Paradigm: "crimp", Env: "outdoor", Metric: "trajectory error", Increasing: false}, nil
	case "churn":
		spec, faults, err := churnFaults(s)
		if err != nil {
			return EndToEndOptions{}, Report{}, err
		}
		return EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
				Systems: SensitivitySystems(), Faults: faults},
			Report{Experiment: id, Title: "Robustness: membership churn",
				Paradigm: "cruda", Env: "outdoor", Faults: spec,
				Metric: "accuracy", Increasing: true}, nil
	case "loss":
		spec := lossnet.Spec{Kind: "ge", Rate: 0.05}
		return EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
				Systems: SensitivitySystems(), Loss: spec, Reliability: lossnet.Selective},
			Report{Experiment: id, Title: "Loss tolerance: bursty packet loss, selective reliability",
				Paradigm: "cruda", Env: "outdoor",
				Loss: spec.String(), Reliability: lossnet.Selective.String(),
				Metric: "accuracy", Increasing: true}, nil
	default:
		return EndToEndOptions{}, Report{}, fmt.Errorf(
			"harness: experiment %q is not an end-to-end comparison", id)
	}
}

// jsonRunners maps every JSON-exportable experiment id to its report
// builder: the end-to-end comparisons share runEndToEndJSON, the sweeps
// (ext-recovery, fleet, serve) bring their own shapes. This map is the
// single registry the error message and the CLI help derive from — adding
// an entry here is the whole wiring.
func jsonRunners() map[string]func(Scale) (*Report, error) {
	m := map[string]func(Scale) (*Report, error){
		"ext-recovery": runExtRecoveryJSON,
		"fleet":        runFleetJSON,
		"serve":        runServeJSON,
	}
	for _, id := range []string{"fig1", "fig6", "fig7", "churn", "loss"} {
		id := id
		m[id] = func(s Scale) (*Report, error) { return runEndToEndJSON(id, s) }
	}
	return m
}

// JSONExperimentIDs lists the JSON-exportable experiment ids, sorted.
func JSONExperimentIDs() []string {
	m := jsonRunners()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunJSONReport executes one JSON-exportable experiment at the given scale.
func RunJSONReport(id string, s Scale) (*Report, error) {
	run, ok := jsonRunners()[id]
	if !ok {
		return nil, fmt.Errorf("harness: experiment %q has no JSON export (want %s)",
			id, strings.Join(JSONExperimentIDs(), ", "))
	}
	return run(s)
}

// runEndToEndJSON executes one end-to-end comparison and serializes it.
func runEndToEndJSON(id string, s Scale) (*Report, error) {
	opts, rep, err := jsonExperiments(id, s)
	if err != nil {
		return nil, err
	}
	// Ride the critical-path analyzer on each system's event stream: the
	// simnet is bit-identical traced or untraced, so the decomposition is
	// free of observer effects.
	crit := make(map[string]*obs.CritPath)
	opts.MakeTrace = func(label string) obs.Tracer {
		cp := obs.NewCritPath()
		crit[label] = cp
		return cp
	}
	results, err := RunEndToEnd(opts)
	if err != nil {
		return nil, err
	}
	rep.Scale = s.Name
	fillReport(&rep, results, len(opts.Faults) > 0, opts.Loss.Enabled())
	for i := range rep.Systems {
		if cp := crit[rep.Systems[i].Label]; cp != nil {
			rep.Systems[i].CritPath = cp.Report()
		}
	}
	return &rep, nil
}

// fillReport derives the per-system entries and the common target from the
// raw results. withChurn includes the churn counters (fault runs only —
// all-zero counters on a fault-free run would read as "no churn happened"
// rather than "not measured"); withLoss likewise includes the loss-channel
// counters only when a loss model was injected.
func fillReport(rep *Report, results []*core.Result, withChurn, withLoss bool) {
	rep.Target = commonTarget(results, rep.Increasing)
	for _, r := range results {
		sr := SystemReport{
			Label:          r.Label(),
			Strategy:       r.Strategy.String(),
			Threshold:      r.Threshold,
			Iterations:     r.Iterations,
			FinalValue:     r.FinalValue,
			TotalJoules:    r.TotalJoules,
			StallFrac:      r.StallFrac,
			MaxStaleness:   r.MaxStaleness,
			ComputeSeconds: r.Composition.Compute,
			CommSeconds:    r.Composition.Comm,
			StallSeconds:   r.Composition.Stall,
		}
		if sec, ok := r.Series.TimeToReach(rep.Target, rep.Increasing); ok {
			sr.SecondsToTarget = &sec
		}
		if j, ok := r.Series.EnergyToReach(rep.Target, rep.Increasing); ok {
			sr.JoulesToTarget = &j
		}
		if withChurn {
			sr.Churn = &ChurnReport{
				Disconnects:  r.Churn.Disconnects,
				Reconnects:   r.Churn.Reconnects,
				RowsResynced: r.Churn.RowsResynced,
				DetachStall:  r.Churn.DetachStall,
			}
		}
		if withLoss {
			sr.Loss = &LossReport{
				RowsLostFolded:    r.Loss.RowsLostFolded,
				RowsRetransmitted: r.Loss.RowsRetransmitted,
				RetransmitBytes:   r.Loss.RetransmitBytes,
			}
		}
		sr.Series = seriesPoints(r.Series)
		rep.Systems = append(rep.Systems, sr)
	}
}

func seriesPoints(s metrics.Series) []SeriesPoint {
	pts := make([]SeriesPoint, 0, len(s.Points))
	for _, p := range s.Points {
		pts = append(pts, SeriesPoint{Iter: p.Iter, Time: p.Time, Energy: p.Energy, Value: p.Value})
	}
	return pts
}

// WriteJSON serializes the report, indented for direct human inspection.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
