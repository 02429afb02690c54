package harness

import (
	"fmt"
	"io"
	"math"

	"rog/internal/core"
	"rog/internal/metrics"
)

// SeedSummary aggregates one system's results across experiment seeds —
// the cheap way to separate a real effect from run-to-run noise.
type SeedSummary struct {
	Label      string
	Seeds      int
	MeanFinal  float64
	StdFinal   float64
	MeanStall  float64 // mean stall fraction
	MeanIters  float64
	MeanJoules float64
}

// SummarizeSeeds folds one experiment's reports, one per seed, into a
// summary per system. Systems pair by label, in whatever order a report
// lists them; the summaries follow the first report's order. Every label
// must appear once in every report, so each mean spans the same seeds.
func SummarizeSeeds(reps []*Report) ([]SeedSummary, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("harness: no seeds given")
	}
	sums := make([]SeedSummary, len(reps[0].Systems))
	finals := make([][]float64, len(sums))
	at := make(map[string]int, len(sums))
	for i, sys := range reps[0].Systems {
		sums[i].Label, at[sys.Label] = sys.Label, i
	}
	for _, rep := range reps {
		for _, sys := range rep.Systems {
			i, ok := at[sys.Label]
			if !ok {
				return nil, fmt.Errorf("harness: %s: system %q is not in the first seed's report", rep.Experiment, sys.Label)
			}
			s := &sums[i]
			s.Seeds++
			s.MeanFinal += sys.FinalValue
			s.MeanStall += sys.StallFrac
			s.MeanIters += float64(sys.Iterations)
			s.MeanJoules += sys.TotalJoules
			finals[i] = append(finals[i], sys.FinalValue)
		}
	}
	n := float64(len(reps))
	for i := range sums {
		s := &sums[i]
		if s.Seeds != len(reps) {
			return nil, fmt.Errorf("harness: system %q appears %d times in %d seeds' reports", s.Label, s.Seeds, len(reps))
		}
		s.MeanFinal /= n
		s.MeanStall /= n
		s.MeanIters /= n
		s.MeanJoules /= n
		var varAcc float64
		for _, v := range finals[i] {
			d := v - s.MeanFinal
			varAcc += d * d
		}
		s.StdFinal = math.Sqrt(varAcc / n)
	}
	return sums, nil
}

// SeedSummaryTable renders the aggregate as an aligned table.
func SeedSummaryTable(sums []SeedSummary) string {
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, []string{
			s.Label,
			fmt.Sprintf("%.4f", s.MeanFinal),
			fmt.Sprintf("%.4f", s.StdFinal),
			fmt.Sprintf("%.1f%%", 100*s.MeanStall),
			fmt.Sprintf("%.0f", s.MeanIters),
			fmt.Sprintf("%.0f", s.MeanJoules),
		})
	}
	return metrics.FormatTable(
		[]string{"system", "mean final", "std", "mean stall", "mean iters", "mean J"},
		rows,
	)
}

// WriteSeriesCSV streams every result's checkpoint series as long-format
// CSV: system,iter,time_s,energy_j,value — ready for any plotting tool.
func WriteSeriesCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "system,iter,time_s,energy_j,value"); err != nil {
		return err
	}
	for _, r := range results {
		for _, p := range r.Series.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.6f\n",
				r.Label(), p.Iter, p.Time, p.Energy, p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
