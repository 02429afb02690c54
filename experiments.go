package rog

import (
	"fmt"

	"rog/internal/core"
	"rog/internal/harness"
)

// Experiment is one reproducible unit of the paper's evaluation (a figure,
// a table, or an ablation).
type Experiment = harness.Experiment

// ExperimentScale sizes an experiment run.
type ExperimentScale = harness.Scale

// Predefined experiment scales.
var (
	// QuickScale runs the experiments at ~1/9 of the paper's duration —
	// what the benchmarks use.
	QuickScale = harness.Quick
	// FullScale runs 60 virtual minutes per system, as in the paper.
	FullScale = harness.Full
)

// Experiments lists every reproducible experiment in paper order.
func Experiments() []Experiment { return harness.Registry() }

// RunExperiment reruns one experiment by id ("fig1", "table1",
// "ablation-granularity", …) and returns its report: Text is the formatted
// rendering, WriteJSON the structured view where the experiment has one.
func RunExperiment(id string, scale ExperimentScale) (*harness.Report, error) {
	e, ok := harness.Find(id)
	if !ok {
		return nil, fmt.Errorf("rog: unknown experiment %q (see Experiments())", id)
	}
	return e.Run(scale)
}

// SystemSpec identifies one compared system in an end-to-end run.
type SystemSpec = harness.SystemSpec

// EndToEndOptions configures a custom end-to-end comparison.
type EndToEndOptions = harness.EndToEndOptions

// RunEndToEnd executes a lineup of systems on an identical workload and
// network, returning one Result per system.
func RunEndToEnd(o EndToEndOptions) ([]*core.Result, error) { return harness.RunEndToEnd(o) }

// CompositionTable renders the average per-iteration time composition of a
// set of results (the Fig. 1a-style panel).
func CompositionTable(results []*Result) string { return harness.CompositionTable(results) }

// SeriesByTime renders quality against wall-clock time for a set of
// results (the Fig. 1c-style panel).
func SeriesByTime(results []*Result, step float64) string {
	return harness.SeriesByTime(results, step)
}
