package harness

import (
	"fmt"
	"strings"

	"rog/internal/core"
	"rog/internal/nn"
	"rog/internal/tensor"
	"rog/internal/trace"
)

// The fleet experiment scales the sharded parameter service and the edge-
// aggregation tier to fleet-size robot counts (PR 7's tentpole). Training
// hundreds of real CRUDA replicas would measure the workload, not the
// system, so the fleet uses a synthetic Workload: a tiny MLP whose
// "gradients" are cheap deterministic noise. Every systems-level quantity
// the sweep reports — iterations completed, stall share, the empirical RSP
// staleness bound through the aggregation tier — is produced by the same
// engine/simnet machinery the real workloads exercise.

// fleetCell is one sweep point: a fleet size, a server shard count, and an
// edge-aggregator count (0 = every robot talks to the root directly).
type fleetCell struct {
	workers, shards, aggregators int
}

func (c fleetCell) label() string {
	return fmt.Sprintf("w%d-s%d-a%d", c.workers, c.shards, c.aggregators)
}

// fleetCells is the sweep: a direct-root baseline, sharding alone, and the
// full edge tier, up to the 256-robot × 8-shard × 4-aggregator cell.
func fleetCells() []fleetCell {
	return []fleetCell{
		{64, 1, 0},
		{64, 8, 0},
		{128, 8, 2},
		{256, 8, 4},
	}
}

// fleetWorkload is the synthetic Workload: per-worker replicas of a tiny
// MLP, gradient noise drawn from per-worker deterministic streams, and a
// drift metric (mean |param| of worker 0) cheap enough to evaluate at any
// checkpoint cadence.
type fleetWorkload struct {
	models []*nn.Sequential
	rngs   []*tensor.RNG
}

func newFleetWorkload(workers int, seed uint64) *fleetWorkload {
	fw := &fleetWorkload{}
	proto := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(seed))
	for w := 0; w < workers; w++ {
		m := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		fw.models = append(fw.models, m)
		fw.rngs = append(fw.rngs, tensor.NewRNG(seed*100003+uint64(w)*31+7))
	}
	return fw
}

func (fw *fleetWorkload) Model(w int) *nn.Sequential { return fw.models[w] }

func (fw *fleetWorkload) ComputeGradients(w int) float64 {
	r := fw.rngs[w]
	for _, g := range fw.models[w].Grads() {
		for i := range g.Data {
			g.Data[i] += float32(r.Norm() * 0.01)
		}
	}
	return 0
}

func (fw *fleetWorkload) Evaluate() float64 {
	var sum float64
	var n int
	for _, p := range fw.models[0].Params() {
		for _, v := range p.Data {
			if v < 0 {
				sum -= float64(v)
			} else {
				sum += float64(v)
			}
		}
		n += len(p.Data)
	}
	return sum / float64(n)
}

func (fw *fleetWorkload) Increasing() bool { return false }

const fleetThreshold = 8

// fleetSeeds derives a fleet run's channel and workload seeds from the
// scale's; seed 1 gives the 33 and 5 of every recorded fleet report.
func fleetSeeds(seed uint64) (env, workload uint64) { return 32 + seed, 4 + seed }

// fleetConfig builds one cell's run. The model is tiny, so PaperModelBytes
// is set low (aggressively compressed rows) — otherwise a 256-robot fleet
// sharing one channel would not finish an iteration inside the budget and
// the sweep would measure only contention.
func fleetConfig(cell fleetCell, seconds float64, seed uint64) core.Config {
	return core.Config{
		Strategy:          core.ROG,
		Workers:           cell.workers,
		Threshold:         fleetThreshold,
		Shards:            cell.shards,
		Aggregators:       cell.aggregators,
		Env:               trace.Outdoor,
		Seed:              seed,
		ComputeSeconds:    1.0,
		PaperModelBytes:   5e4,
		LR:                0.02,
		Momentum:          0.9,
		MaxVirtualSeconds: seconds,
		CheckpointEvery:   50,
	}
}

// runFleetCell executes one cell at the scale seed under the harness
// invariants: run fails it if any merge, direct or forwarded through an
// aggregator, exceeded the staleness threshold.
func runFleetCell(cell fleetCell, seconds float64, seed uint64) (*core.Result, error) {
	env, workload := fleetSeeds(seed)
	res, _, err := run(fleetConfig(cell, seconds, env), newFleetWorkload(cell.workers, workload))
	if err != nil {
		return nil, fmt.Errorf("harness: fleet %s: %w", cell.label(), err)
	}
	return res, nil
}

// runFleet runs the sweep once; the structured view has one entry per cell,
// labelled "w256-s8-a4" style, with MaxStaleness carried for regression
// tooling.
func runFleet(s Scale) (*Report, error) {
	rep := &Report{
		Title:    "Fleet scaling: sharded server × edge aggregation",
		Paradigm: "synthetic", Env: "outdoor", Metric: "parameter drift",
	}
	var results []*core.Result
	var labels []string
	cells := map[string]fleetCell{}
	for _, cell := range fleetCells() {
		res, err := runFleetCell(cell, s.VirtualSeconds/7, s.Seed) // the per-cell budget
		if err != nil {
			return nil, err
		}
		results, labels = append(results, res), append(labels, cell.label())
		cells[cell.label()] = cell
	}
	rep.fill(results, labels...)
	var b strings.Builder
	b.WriteString("== Fleet scaling: sharded server × edge aggregation (synthetic workload, ROG-8) ==\n\n")
	b.WriteString(table(rep.Systems,
		col("robots", "%d", func(s SystemReport) any { return cells[s.Label].workers }),
		col("shards", "%d", func(s SystemReport) any { return cells[s.Label].shards }),
		col("aggregators", "%d", func(s SystemReport) any { return cells[s.Label].aggregators }),
		iterationsCol, iterTotalCol.as("iter span(s)"),
		col("stall", "%.0f%%", func(s SystemReport) any { return 100 * s.StallFrac }),
		col("max staleness", "%d", func(s SystemReport) any { return s.MaxStaleness })))
	fmt.Fprintf(&b, "\nevery merge obeyed the RSP bound (threshold %d), including rows forwarded through the edge tier\n",
		fleetThreshold)
	rep.Text = b.String()
	return rep, nil
}
