package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"rog/internal/core"
	"rog/internal/trace"
)

// TestSummarizeSeedsFig9Batch folds a sweep over two seeds: seed 1 is the
// registry sweep's own tiny fig9batch run, seed 2 a second run at the next
// seed. The fold pairs the cells by label whatever order a report lists them
// in, and a one-seed fold reproduces the report's values exactly. Skipped
// under -short with the registry sweep.
func TestSummarizeSeedsFig9Batch(t *testing.T) {
	if testing.Short() {
		t.Skip("two fig9batch sweeps skipped in -short mode")
	}
	one := runTiny(t, "fig9batch")
	e, _ := Find("fig9batch")
	s := tinyScale
	s.Seed = 2
	two, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Systems) != 9 || len(two.Systems) != len(one.Systems) {
		t.Fatalf("%d and %d cells, want 9 each", len(one.Systems), len(two.Systems))
	}
	byLabel := map[string]SystemReport{}
	for _, sys := range two.Systems {
		byLabel[sys.Label] = sys
	}
	single, err := SummarizeSeeds([]*Report{one})
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, sum := range single {
		sys := one.Systems[i]
		want := SeedSummary{Label: sys.Label, Seeds: 1, MeanFinal: sys.FinalValue, MeanStall: sys.StallFrac,
			MeanIters: float64(sys.Iterations), MeanJoules: sys.TotalJoules}
		if sum != want {
			t.Fatalf("seed 1 alone: %+v, want %+v", sum, want)
		}
		other, ok := byLabel[sys.Label]
		if !ok {
			t.Fatalf("seed 2 has no cell %q", sys.Label)
		}
		moved = moved || other.FinalValue != sys.FinalValue || other.Iterations != sys.Iterations
	}
	if !moved {
		t.Fatal("seed 2 reproduced seed 1 in every cell: the seed reaches no stream")
	}

	// Reverse seed 2's cells: the fold must still pair by label.
	shuffled := *two
	shuffled.Systems = slices.Clone(two.Systems)
	slices.Reverse(shuffled.Systems)
	sums, err := SummarizeSeeds([]*Report{one, &shuffled})
	if err != nil {
		t.Fatal(err)
	}
	for i, sum := range sums {
		a, b := one.Systems[i], byLabel[one.Systems[i].Label]
		if sum.Label != a.Label || sum.Seeds != 2 || sum.MeanFinal != (a.FinalValue+b.FinalValue)/2 ||
			sum.MeanIters != float64(a.Iterations+b.Iterations)/2 {
			t.Fatalf("cell %s: %+v, want the mean of %+v and %+v", a.Label, sum, a, b)
		}
	}
	table := SeedSummaryTable(sums)
	if !strings.Contains(table, "ROG-4 batch x4") || !strings.Contains(table, "mean final") {
		t.Fatalf("summary table:\n%s", table)
	}

	// A report missing a cell cannot be paired.
	short := *two
	short.Systems = two.Systems[1:]
	if _, err := SummarizeSeeds([]*Report{one, &short}); err == nil {
		t.Fatal("a report missing a cell was summarised")
	}
	if _, err := SummarizeSeeds(nil); err == nil {
		t.Fatal("no seeds accepted")
	}
}

// TestSeedOneKeepsRecordedStreams pins the seed mapping of the experiments
// that offset the scale's seed: seed 1 must give the streams every recorded
// fleet and serve report used.
func TestSeedOneKeepsRecordedStreams(t *testing.T) {
	if env, workload := fleetSeeds(1); env != 33 || workload != 5 {
		t.Fatalf("fleet seeds at seed 1 = %d, %d; want 33, 5", env, workload)
	}
	if seed := serveSeed(1); seed != 11 {
		t.Fatalf("serve seed at seed 1 = %d, want 11", seed)
	}
	if Quick.Seed != 1 || Full.Seed != 1 {
		t.Fatalf("Quick and Full seeds = %d, %d; want 1", Quick.Seed, Full.Seed)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda",
		Env:      trace.Indoor,
		Scale:    tinyScale,
		Systems:  []SystemSpec{{core.ROG, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "system,iter,time_s,energy_j,value" {
		t.Fatalf("header: %s", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("too few rows:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[1], "ROG-4,") {
		t.Fatalf("row: %s", lines[1])
	}
}
