package harness

import (
	"math"
	"strings"
	"testing"

	"rog/internal/core"
	"rog/internal/metrics"
)

func fakeResult(strategy core.Strategy, threshold int, values []float64, energyStep float64) *core.Result {
	r := &core.Result{Strategy: strategy, Threshold: threshold}
	r.Series.Name = "fake"
	for i, v := range values {
		r.Series.Add(metrics.Point{
			Iter:   (i + 1) * 10,
			Time:   float64(i+1) * 60,
			Energy: float64(i+1) * energyStep,
			Value:  v,
		})
	}
	r.FinalValue = values[len(values)-1]
	r.Iterations = len(values) * 10
	r.TotalJoules = float64(len(values)) * energyStep
	r.Composition = metrics.Composition{Compute: 2, Comm: 1, Stall: 1}
	r.StallFrac = 0.25
	return r
}

// filled is the report fill makes of results on a metric that is
// increasing or not: the systems and target every renderer reads.
func filled(increasing bool, results ...*core.Result) *Report {
	rep := &Report{Increasing: increasing}
	rep.fill(results)
	return rep
}

func TestEnergyTableCommonTarget(t *testing.T) {
	// System A peaks at 0.7, B at 0.6 → common target 0.6. A reaches 0.6
	// at its second checkpoint (energy 200), B at its last (energy 300).
	a := fakeResult(core.ROG, 4, []float64{0.5, 0.65, 0.7}, 100)
	b := fakeResult(core.BSP, 0, []float64{0.4, 0.5, 0.6}, 100)
	rep := filled(true, a, b)
	out := energyTable(rep.Systems, rep.Target, true)
	if !strings.Contains(out, "0.6000") {
		t.Fatalf("target not 0.6:\n%s", out)
	}
	if !strings.Contains(out, "200") || !strings.Contains(out, "300") {
		t.Fatalf("energy-to-target values missing:\n%s", out)
	}
}

func TestEnergyTableDecreasingMetric(t *testing.T) {
	a := fakeResult(core.ROG, 4, []float64{2.0, 0.8, 0.3}, 100)
	b := fakeResult(core.SSP, 20, []float64{2.0, 1.2, 0.5}, 100)
	rep := filled(false, a, b)
	out := energyTable(rep.Systems, rep.Target, false)
	// Common target is the loosest best: 0.5 (b's best). a reaches ≤0.5
	// at its third checkpoint.
	if !strings.Contains(out, "error = 0.5000") {
		t.Fatalf("decreasing target wrong:\n%s", out)
	}
}

func TestEnergyTableNotReached(t *testing.T) {
	// A series that never reaches the target renders "not reached".
	a := fakeResult(core.ROG, 4, []float64{0.5, 0.9}, 100)
	b := fakeResult(core.BSP, 0, []float64{0.1, 0.2}, 100)
	// Common target = 0.2 (B's best): both reach it. Use Summary instead
	// to confirm it does not crash with disjoint ranges.
	if s := summary(filled(true, a, b).Systems, true); !strings.Contains(s, "ROG") {
		t.Fatalf("summary: %s", s)
	}
}

func TestDivergedSystemKeepsCommonTarget(t *testing.T) {
	// A system whose every checkpoint is NaN makes no claim on the target:
	// it stays ROG's best (0.9), which ROG reaches at its second checkpoint
	// (200 J) and the diverged system never does.
	a := fakeResult(core.ROG, 4, []float64{0.5, 0.9}, 100)
	b := fakeResult(core.BSP, 0, []float64{math.NaN(), math.NaN()}, 100)
	rep := filled(true, a, b)
	if rep.Target != 0.9 {
		t.Fatalf("target = %v, want 0.9", rep.Target)
	}
	if j := rep.Systems[0].JoulesToTarget; j == nil || *j != 200 {
		t.Fatalf("ROG joules to target = %v, want 200", j)
	}
	if rep.Systems[1].JoulesToTarget != nil {
		t.Fatalf("the diverged system reached the target at %v J", *rep.Systems[1].JoulesToTarget)
	}
	out := energyTable(rep.Systems, rep.Target, true)
	if !strings.Contains(out, "accuracy = 0.9000") || !strings.Contains(out, "not reached") {
		t.Fatalf("energy table:\n%s", out)
	}
}

func TestSummaryContainsGainAndEnergy(t *testing.T) {
	rog := fakeResult(core.ROG, 4, []float64{0.5, 0.7, 0.8}, 50)
	bsp := fakeResult(core.BSP, 0, []float64{0.4, 0.6, 0.7}, 100)
	s := summary(filled(true, rog, bsp).Systems, true)
	if !strings.Contains(s, "gain") || !strings.Contains(s, "energy") {
		t.Fatalf("summary incomplete: %s", s)
	}
	if summary(filled(true, bsp).Systems, true) != "" {
		t.Fatal("summary without ROG should be empty")
	}
}

func TestMicroTableStride(t *testing.T) {
	samples := make([]core.MicroSample, 100)
	for i := range samples {
		samples[i] = core.MicroSample{Time: float64(i), LinkMbps: 50, TxRate: 0.5, Staleness: 1}
	}
	out := microTable(samples, 10)
	lines := strings.Count(out, "\n")
	if lines > 14 { // header + separator + ~10 rows
		t.Fatalf("stride failed, %d lines:\n%s", lines, out)
	}
	full := microTable(samples[:5], 0)
	if strings.Count(full, "\n") != 7 {
		t.Fatalf("unstrided table wrong:\n%s", full)
	}
}

func TestCompositionTableColumns(t *testing.T) {
	r := fakeResult(core.SSP, 4, []float64{0.5}, 10)
	out := CompositionTable([]*core.Result{r})
	for _, col := range []string{"compute", "comm", "stall", "SSP-4", "25.0%"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing %q:\n%s", col, out)
		}
	}
}

func TestSeriesTablesHandleShortRuns(t *testing.T) {
	r := fakeResult(core.BSP, 0, []float64{0.5}, 10)
	if SeriesByTime([]*core.Result{r}, 30) == "" {
		t.Fatal("empty time series table")
	}
	if seriesByIteration(systemReports([]*core.Result{r}), 5) == "" {
		t.Fatal("empty iteration series table")
	}
	if SeriesByTime(nil, 30) != "" || seriesByIteration(nil, 5) != "" {
		t.Fatal("nil results should render empty")
	}
}
