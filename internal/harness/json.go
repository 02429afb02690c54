package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"rog/internal/core"
	"rog/internal/metrics"
	"rog/internal/obs"
)

// Report is what one execution of an experiment produced. Text is the
// rendering `rogbench -exp` prints; the rest is the structured view that
// `rogbench -json` writes and `-drift` compares — per-system composition,
// energy, time/energy-to-target, churn/loss/recovery counters, the
// critical-path decomposition and the complete checkpoint series — so
// plotting and regression tooling never scrape the text tables. Tables,
// ablations and the sensitivity sweeps have bespoke shapes and fill only
// Text.
type Report struct {
	Text string `json:"-"`

	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Scale      string `json:"scale"`
	Paradigm   string `json:"paradigm"`
	Env        string `json:"env"`
	Faults     string `json:"faults,omitempty"`
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

// SystemReport is one compared system's (or sweep cell's) slice of a Report.
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
	SecondsToTarget *float64 `json:"seconds_to_target,omitempty"`
	JoulesToTarget  *float64 `json:"joules_to_target,omitempty"`
	// Churn and Loss are present only on the experiments that inject faults
	// / a loss channel: all-zero counters on a clean run would read as
	// "nothing happened" rather than "not measured".
	Churn    *metrics.ChurnStats `json:"churn,omitempty"`
	Loss     *metrics.LossStats  `json:"loss,omitempty"`
	Recovery *RecoveryReport     `json:"recovery,omitempty"`
	// Serve carries one serve-sweep cell's latency/throughput/staleness
	// metrics (the serve experiment only).
	Serve *ServeCellReport `json:"serve,omitempty"`
	// CritPath is the causal critical-path decomposition of this system's
	// run: per-worker compute/comm/stall/merge segments, the top blocking
	// (worker, unit) pairs and the stall duration quantiles.
	CritPath *obs.CritReport `json:"critpath,omitempty"`
	Series   []metrics.Point `json:"series"`
}

// RecoveryReport carries one ext-recovery cell's checkpoint policy, what the
// scripted server crash cost under it, and the iteration deficit against the
// uninterrupted baseline.
type RecoveryReport struct {
	CheckpointEverySeconds float64 `json:"checkpoint_every_seconds"`
	WALSyncEvery           int     `json:"wal_sync_every"`
	metrics.RecoveryStats
	IterationsLost int `json:"iterations_lost"`
}

// structured is a structured experiment's report header for a CRUDA or
// CRIMP lineup: the paradigm fixes the quality axis.
func structured(title string, o EndToEndOptions) *Report {
	rep := &Report{Title: title, Paradigm: o.Paradigm, Env: o.Env.String(),
		Metric: "accuracy", Increasing: true}
	if o.Paradigm == "crimp" {
		rep.Metric, rep.Increasing = "trajectory error", false
	}
	return rep
}

// runStructured executes the lineup once and fills rep's systems from it,
// riding the trace analyser on each system's event stream: the simnet is
// bit-identical traced or untraced, so the decomposition is free of
// observer effects. A system whose trace is structurally broken fails the
// run. The results come back for the text rendering.
func runStructured(o EndToEndOptions, rep *Report) ([]*core.Result, error) {
	crit := make(map[string]*obs.CritPath)
	o.MakeTrace = func(label string) obs.Tracer {
		crit[label] = obs.NewCritPath()
		return crit[label]
	}
	results, err := RunEndToEnd(o)
	if err != nil {
		return nil, err
	}
	rep.fill(results)
	for i := range rep.Systems {
		sys := &rep.Systems[i]
		sys.CritPath = crit[sys.Label].Report()
		if errs := sys.CritPath.Errors; len(errs) > 0 {
			return nil, fmt.Errorf("harness: %s, %s: %d structural trace error(s), first: %s",
				rep.Title, sys.Label, len(errs), errs[0])
		}
	}
	return results, nil
}

// fill derives the per-system entries and the common target from the raw
// results; callers relabel sweep cells and attach their own blocks.
func (rep *Report) fill(results []*core.Result) {
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
			Series:         r.Series.Points,
		}
		if sec, ok := r.Series.TimeToReach(rep.Target, rep.Increasing); ok {
			sr.SecondsToTarget = &sec
		}
		if j, ok := r.Series.EnergyToReach(rep.Target, rep.Increasing); ok {
			sr.JoulesToTarget = &j
		}
		rep.Systems = append(rep.Systems, sr)
	}
}

// WriteJSON serializes the structured view, indented for direct human
// inspection.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSONReport parses a report previously written by Report.WriteJSON.
func ReadJSONReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("harness: parsing benchmark snapshot: %w", err)
	}
	if rep.Experiment == "" {
		return nil, fmt.Errorf("harness: benchmark snapshot names no experiment")
	}
	return &rep, nil
}
