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
// plotting and regression tooling never scrape the text tables. Every
// experiment that trains fills Systems, one uniquely labelled entry per run;
// fig3 and the tables fill only Text.
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
	// system can reach it (same rule as the text tables). A sweep compares
	// cells only within a group, as its text prints one table per group:
	// each cell then carries its group's target, and this one is the
	// loosest of them, the level every cell reached.
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
	// Target is the group's target in a sweep (nil elsewhere: the
	// report's Target).
	Target *float64 `json:"quality_target,omitempty"`
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

// newReport is the report header for a CRUDA or CRIMP run: the paradigm
// fixes the quality axis.
func newReport(title string, o EndToEndOptions) *Report {
	rep := &Report{Title: title, Paradigm: o.Paradigm, Env: o.Env.String(),
		Metric: "accuracy", Increasing: true}
	if o.Paradigm == "crimp" {
		rep.Metric, rep.Increasing = "trajectory error", false
	}
	return rep
}

// lineup runs o's lineup once into a report titled title, each system with
// the critical-path decomposition the analyser read off its event stream.
// The results come back for the text rendering.
func lineup(title string, o EndToEndOptions) (*Report, []*core.Result, error) {
	results, crits, err := runLineup(o)
	if err != nil {
		return nil, nil, err
	}
	rep := newReport(title, o)
	rep.fill(results)
	for i := range rep.Systems {
		rep.Systems[i].CritPath = crits[i]
	}
	return rep, results, nil
}

// fill derives the per-system entries and the common target from the raw
// results, labelled by labels where given (sweep cells) and by their system
// otherwise; callers attach their own blocks.
func (rep *Report) fill(results []*core.Result, labels ...string) {
	rep.Target = commonTarget(results, rep.Increasing)
	rep.add(results, labels, nil)
}

// fillGroup appends one group of a sweep's cells, each paired with the
// group's own target and carrying it, and loosens Target to cover it.
func (rep *Report) fillGroup(results []*core.Result, labels []string) {
	target := commonTarget(results, rep.Increasing)
	if len(rep.Systems) == 0 || rep.Increasing == (target < rep.Target) {
		rep.Target = target
	}
	rep.add(results, labels, &target)
}

// add appends one SystemReport per result, paired with group's target when
// it is set and with the report's otherwise.
func (rep *Report) add(results []*core.Result, labels []string, group *float64) {
	target := rep.Target
	if group != nil {
		target = *group
	}
	for i, r := range results {
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
			Target:         group,
		}
		if sec, ok := r.Series.TimeToReach(target, rep.Increasing); ok {
			sr.SecondsToTarget = &sec
		}
		if j, ok := r.Series.EnergyToReach(target, rep.Increasing); ok {
			sr.JoulesToTarget = &j
		}
		if i < len(labels) {
			sr.Label = labels[i]
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
