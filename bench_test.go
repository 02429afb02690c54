package rog

// Benchmark harness: one sub-benchmark per registry entry — every table,
// figure, ablation and extension of the evaluation. Each reruns its
// experiment at QuickScale; where the experiment has a structured report
// the per-system headline quantities are reported as benchmark metrics. The
// formatted report for any id is printed by `go run ./cmd/rogbench -exp
// <id>` (add -full for the paper-scale run); the wall-clock benchmark
// proper lives in bench/.

import (
	"strings"
	"testing"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(QuickScale)
				if err != nil {
					b.Fatal(err)
				}
				if i > 0 {
					continue
				}
				for _, s := range rep.Systems {
					label := strings.ReplaceAll(s.Label, " ", "_") // units may not hold spaces
					b.ReportMetric(s.StallFrac, "stall_frac_"+label)
					b.ReportMetric(s.FinalValue, "final_"+label)
					b.ReportMetric(float64(s.Iterations), "iters_"+label)
				}
			}
		})
	}
}
