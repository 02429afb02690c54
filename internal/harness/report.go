package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"rog/internal/core"
	"rog/internal/metrics"
)

// column is one column of a text table: its header and the cell it renders
// for each row.
type column[T any] struct {
	header string
	cell   func(T) string
}

// col is the column under header whose cell prints f's value with format.
func col[T any](header, format string, f func(T) any) column[T] {
	return column[T]{header, func(r T) string { return fmt.Sprintf(format, f(r)) }}
}

// as is c under another header.
func (c column[T]) as(header string) column[T] {
	c.header = header
	return c
}

// table renders rows as an aligned text table, one column per col.
func table[T any](rows []T, cols ...column[T]) string {
	headers := make([]string, len(cols))
	for j, c := range cols {
		headers[j] = c.header
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = make([]string, len(cols))
		for j, c := range cols {
			cells[i][j] = c.cell(r)
		}
	}
	return metrics.FormatTable(headers, cells)
}

// The columns several tables over a report's systems share.
var (
	systemCol     = column[SystemReport]{"system", func(s SystemReport) string { return s.Label }}
	iterationsCol = col("iterations", "%d", func(s SystemReport) any { return s.Iterations })
	finalCol      = col("final", "%.4f", func(s SystemReport) any { return s.FinalValue })
	commCol       = col("comm(s)", "%.2f", func(s SystemReport) any { return s.CommSeconds })
	stallCol      = col("stall(s)", "%.2f", func(s SystemReport) any { return s.StallSeconds })
	iterTotalCol  = col("iter total(s)", "%.2f", func(s SystemReport) any {
		return s.ComputeSeconds + s.CommSeconds + s.StallSeconds
	})
	totalJCol = col("total J", "%.0f", func(s SystemReport) any { return s.TotalJoules })
)

// named is a copy of systems with the i-th labelled names[i]: the rows of a
// table that names its systems within a group ("ROG-4" under "-- batch x2
// --", where the report's label reads "ROG-4 batch x2").
func named(systems []SystemReport, names []string) []SystemReport {
	out := slices.Clone(systems)
	for i := range out {
		out[i].Label = names[i]
	}
	return out
}

// CompositionTable renders results' average iteration composition through
// the Result → SystemReport step a report takes: the adapter the rog facade
// exports.
func CompositionTable(results []*core.Result) string {
	return compositionTable(systemReports(results))
}

// SeriesByTime is the facade's adapter for seriesByTime, as
// CompositionTable is for compositionTable.
func SeriesByTime(results []*core.Result, step float64) string {
	return seriesByTime(systemReports(results), step)
}

// compositionTable renders the average time composition of a training
// iteration per system — the bar charts of Figs. 1a/6a/7a/9e/9f as rows.
func compositionTable(systems []SystemReport) string {
	return table(systems, systemCol,
		col("compute(s)", "%.2f", func(s SystemReport) any { return s.ComputeSeconds }),
		commCol, stallCol, iterTotalCol,
		col("stall share", "%.1f%%", func(s SystemReport) any { return 100 * s.StallFrac }))
}

// seriesByTime renders quality against wall-clock time (Figs. 1c/6c/7c):
// one column per system, one row per time step.
func seriesByTime(systems []SystemReport, step float64) string {
	if len(systems) == 0 {
		return ""
	}
	end := 0.0
	for _, s := range systems {
		end = max(end, series(s).Last().Time)
	}
	var steps []float64
	for t := step; t <= end+1e-9; t += step {
		steps = append(steps, t)
	}
	cols := []column[float64]{col("time(s)", "%.0f", func(t float64) any { return t })}
	for _, s := range systems {
		ser := series(s)
		cols = append(cols, column[float64]{s.Label, func(t float64) string { return fmtVal(ser.ValueAt(t)) }})
	}
	return table(steps, cols...)
}

// seriesByIteration renders quality against iteration count (statistical
// efficiency, Figs. 1b/6b/7b).
func seriesByIteration(systems []SystemReport, step int) string {
	if len(systems) == 0 {
		return ""
	}
	var steps []int
	for it, end := step, lastIter(systems); it <= end; it += step {
		steps = append(steps, it)
	}
	cols := []column[int]{col("iteration", "%d", func(it int) any { return it })}
	for _, s := range systems {
		ser := series(s)
		cols = append(cols, column[int]{s.Label, func(it int) string { return fmtVal(ser.ValueAtIter(it)) }})
	}
	return table(steps, cols...)
}

// series is s's checkpoint series, for the step lookups.
func series(s SystemReport) *metrics.Series { return &metrics.Series{Points: s.Series} }

// lastIter is the latest checkpointed iteration of any system.
func lastIter(systems []SystemReport) int {
	end := 0
	for _, s := range systems {
		end = max(end, series(s).Last().Iter)
	}
	return end
}

// iterStep is the iteration table's step: eight rows to the longest run.
func iterStep(systems []SystemReport) int { return max(1, lastIter(systems)/8) }

// energyTable renders the energy each system needs to reach target, the
// common quality its report paired it with (Figs. 1d/6d/7d), plus totals.
func energyTable(systems []SystemReport, target float64, increasing bool) string {
	title := fmt.Sprintf("energy to reach %s = %.4f\n", metricName(increasing), target)
	return title + table(systems, systemCol, finalCol,
		column[SystemReport]{"J to target", func(s SystemReport) string {
			if s.JoulesToTarget == nil {
				return "not reached"
			}
			return fmt.Sprintf("%.0f", *s.JoulesToTarget)
		}},
		totalJCol, iterationsCol)
}

// commonTarget picks the strictest quality level every system attained at
// some checkpoint (noise-robust: best-over-series, not final value).
func commonTarget(systems []SystemReport, increasing bool) float64 {
	// Per system, the best finite value it ever checkpointed; the common
	// target is the loosest of those bests, so every system can reach it. A
	// system with no finite checkpoint (a diverged run) makes no claim on
	// the target and reads "not reached".
	target := math.Inf(1) // min over bests for an increasing metric
	if !increasing {
		target = math.Inf(-1) // max over bests for a decreasing metric
	}
	for _, s := range systems {
		best := math.Inf(-1)
		if !increasing {
			best = math.Inf(1)
		}
		finite := false
		for _, p := range s.Series {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				continue
			}
			finite = true
			if increasing && p.Value > best || !increasing && p.Value < best {
				best = p.Value
			}
		}
		if finite && (increasing && best < target || !increasing && best > target) {
			target = best
		}
	}
	return target
}

func metricName(increasing bool) string {
	if increasing {
		return "accuracy"
	}
	return "error"
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

// microTable renders Fig. 8's micro-event samples: bandwidth vs ROG's
// chosen transmission rate vs accumulated staleness.
func microTable(samples []core.MicroSample, maxRows int) string {
	stride := 1
	if maxRows > 0 && len(samples) > maxRows {
		stride = (len(samples) + maxRows - 1) / maxRows
	}
	var rows []core.MicroSample
	for i := 0; i < len(samples); i += stride {
		rows = append(rows, samples[i])
	}
	return table(rows,
		col("time(s)", "%.1f", func(s core.MicroSample) any { return s.Time }),
		col("bandwidth(Mbps)", "%.1f", func(s core.MicroSample) any { return s.LinkMbps }),
		col("tx rate", "%.0f%%", func(s core.MicroSample) any { return 100 * s.TxRate }),
		col("staleness", "%d", func(s core.MicroSample) any { return s.Staleness }))
}

// churnTable renders the membership-churn counters of a fault-injected
// comparison: how each system experienced the same crash/rejoin schedule.
func churnTable(systems []SystemReport) string {
	return table(systems, systemCol,
		col("disconnects", "%d", func(s SystemReport) any { return s.Churn.Disconnects }),
		col("reconnects", "%d", func(s SystemReport) any { return s.Churn.Reconnects }),
		col("rows resynced", "%d", func(s SystemReport) any { return s.Churn.RowsResynced }),
		col("detach-stall(s)", "%.1f", func(s SystemReport) any { return s.Churn.DetachStall }),
		iterationsCol, finalCol)
}

// lossTable summarizes loss-channel outcomes per system: best-effort rows
// folded back into local accumulators, reliable rows retransmitted and the
// repeat bytes they cost, against what the run still achieved.
func lossTable(systems []SystemReport) string {
	return table(systems, systemCol,
		col("rows folded", "%d", func(s SystemReport) any { return s.Loss.RowsLostFolded }),
		col("rows retransmitted", "%d", func(s SystemReport) any { return s.Loss.RowsRetransmitted }),
		col("retransmit bytes", "%.0f", func(s SystemReport) any { return s.Loss.RetransmitBytes }),
		iterationsCol, finalCol)
}

// summary is the one-line comparative verdict printed under each figure.
func summary(systems []SystemReport, increasing bool) string {
	var rog, best *SystemReport
	for i := range systems {
		s := &systems[i]
		isROG := s.Strategy == core.ROG.String()
		if isROG && (rog == nil || better(s.FinalValue, rog.FinalValue, increasing)) {
			rog = s
		}
		if !isROG && (best == nil || better(s.FinalValue, best.FinalValue, increasing)) {
			best = s
		}
	}
	if rog == nil || best == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "best ROG %s=%.4f vs best baseline (%s) %.4f",
		metricName(increasing), rog.FinalValue, best.Label, best.FinalValue)
	if increasing {
		fmt.Fprintf(&b, " (gain %+.2f pts)", 100*(rog.FinalValue-best.FinalValue))
	} else {
		fmt.Fprintf(&b, " (reduction %+.1f%%)", 100*(best.FinalValue-rog.FinalValue)/math.Max(best.FinalValue, 1e-9))
	}
	if jr, jb := rog.JoulesToTarget, best.JoulesToTarget; jr != nil && jb != nil && *jb > 0 {
		fmt.Fprintf(&b, "; energy to common target: ROG %.0fJ vs %.0fJ (%.1f%% saved)",
			*jr, *jb, 100*(*jb-*jr) / *jb)
	}
	return b.String()
}

func better(a, b float64, increasing bool) bool {
	if increasing {
		return a > b
	}
	return a < b
}
