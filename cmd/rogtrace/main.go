// Command rogtrace reads a JSONL event trace written by rogtrain -trace (or
// any obs.JSONLTracer) through the trace analyser and prints the run's
// composition, transmission and staleness tables — the offline counterpart
// of the live metrics registry. It exits non-zero when the trace is
// structurally broken.
//
// The critpath subcommand prints the same pass's critical-path view
// instead: each worker's wall time decomposed into compute / comm /
// gate-stall / merge segments, the top blocking (worker, unit) pairs, and
// the stall duration quantiles. It exits non-zero when the decomposition
// covers less than 99% of any worker's wall time or the trace is
// structurally broken.
//
// Usage:
//
//	rogtrain -strategy rog -trace run.jsonl
//	rogtrace run.jsonl
//	rogtrace - < run.jsonl
//	rogtrace critpath run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rog"
	"rog/internal/metrics"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rogtrace [critpath] <trace.jsonl>  (or \"-\" for stdin)")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	critpath := len(args) > 0 && args[0] == "critpath"
	if critpath {
		args = args[1:]
	}
	if len(args) != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if path := args[0]; path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rogtrace: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	cp, err := rog.ReadTrace(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogtrace: %v\n", err)
		os.Exit(1)
	}
	if critpath {
		rep := cp.Report()
		printCritPath(rep)
		if len(rep.Errors) > 0 || rep.MinCoverage() < 0.99 {
			os.Exit(1)
		}
		return
	}
	sum := cp.Summary()
	printSummary(sum)
	if len(sum.PairErrors) > 0 {
		os.Exit(1)
	}
}

// printCritPath renders the critical-path decomposition: the per-worker
// segment table, the top blocking (worker, unit) pairs, and the stall
// duration quantiles.
func printCritPath(rep *rog.CritReport) {
	fmt.Println("-- critical path (per worker) --")
	rows := make([][]string, 0, len(rep.Workers))
	for _, w := range rep.Workers {
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Worker),
			fmt.Sprintf("%d", w.Iters),
			fmt.Sprintf("%.2f", w.WallSeconds),
			fmt.Sprintf("%.2f", w.ComputeSeconds),
			fmt.Sprintf("%.2f", w.CommSeconds),
			fmt.Sprintf("%.2f", w.StallSeconds),
			fmt.Sprintf("%.2f", w.MergeSeconds),
			fmt.Sprintf("%.1f%%", 100*w.Coverage),
		})
	}
	fmt.Println(metrics.FormatTable(
		[]string{"worker", "iters", "wall s", "compute s", "comm s", "stall s", "merge s", "coverage"}, rows))

	compute, comm, stall, merge := rep.Totals()
	fmt.Printf("\ntotals: compute %.2fs, comm %.2fs, stall %.2fs, merge %.2fs (min coverage %.1f%%)\n",
		compute, comm, stall, merge, 100*rep.MinCoverage())

	if len(rep.Blockers) > 0 {
		fmt.Println("\n-- top blockers (who held the RSP gate) --")
		rows = rows[:0]
		for i, b := range rep.Blockers {
			if i == 10 {
				break
			}
			who, unit := fmt.Sprintf("%d", b.Worker), fmt.Sprintf("%d", b.Unit)
			if b.Worker < 0 {
				who = "unknown"
			}
			if b.Unit < 0 {
				unit = "detach"
			}
			rows = append(rows, []string{
				who, unit,
				fmt.Sprintf("%.2f", b.StallSeconds),
				fmt.Sprintf("%d", b.Stalls),
			})
		}
		fmt.Println(metrics.FormatTable([]string{"worker", "unit", "stall s", "stalls"}, rows))
	}

	if rep.StallHist.Count > 0 {
		fmt.Printf("\nstall durations: %d stalls, p50 %.3fs, p95 %.3fs, p99 %.3fs\n",
			rep.StallHist.Count, rep.StallHist.P50, rep.StallHist.P95, rep.StallHist.P99)
	}
	if rep.InfraCommSeconds > 0 {
		fmt.Printf("infrastructure (aggregator uplink) airtime: %.2fs\n", rep.InfraCommSeconds)
	}
	if rep.OpenStalls > 0 {
		fmt.Printf("%d stall interval(s) left open (run ended or membership ended them)\n", rep.OpenStalls)
	}
	if rep.Unattributed > 0 {
		fmt.Printf("%d stall(s) without a concrete blocker\n", rep.Unattributed)
	}
	if len(rep.Errors) > 0 {
		fmt.Println("\n-- structural violations --")
		for _, e := range rep.Errors {
			fmt.Printf("  %s\n", e)
		}
	}
}

func printSummary(s *rog.TraceSummary) {
	fmt.Println("-- event counts --")
	kinds := make([]string, 0, len(s.Events))
	for k := range s.Events {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	rows := make([][]string, 0, len(kinds))
	for _, k := range kinds {
		rows = append(rows, []string{k, fmt.Sprintf("%d", s.Events[k])})
	}
	fmt.Println(metrics.FormatTable([]string{"event", "count"}, rows))

	if s.Iters > 0 {
		comp, comm, stall := s.Composition()
		fmt.Printf("\navg iteration (%d worker-iterations): compute %.2fs, comm %.2fs, stall %.2fs\n",
			s.Iters, comp, comm, stall)
		fmt.Println("\n-- per-iteration composition --")
		rows = rows[:0]
		// Sample long runs down to ~40 rows so the table stays readable.
		step := (len(s.ByIter) + 39) / 40
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(s.ByIter); i += step {
			r := s.ByIter[i]
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.Iter),
				fmt.Sprintf("%d", r.Count),
				fmt.Sprintf("%.2f", r.Compute),
				fmt.Sprintf("%.2f", r.Comm),
				fmt.Sprintf("%.2f", r.Stall),
			})
		}
		fmt.Println(metrics.FormatTable(
			[]string{"iter", "workers", "compute s", "comm s", "stall s"}, rows))
	}

	if s.RowsPlanned > 0 || s.RowsSent > 0 {
		fmt.Println("\n-- transmission --")
		fmt.Println(metrics.FormatTable(
			[]string{"direction", "rows", "bytes"},
			[][]string{
				{"push", fmt.Sprintf("%d", s.RowsSent), fmt.Sprintf("%.0f", s.BytesPushed)},
				{"pull", fmt.Sprintf("%d", s.RowsPulled), fmt.Sprintf("%.0f", s.BytesPulled)},
			}))
		fmt.Printf("planned %d rows, deferred %d\n", s.RowsPlanned, s.RowsDeferred)
	}

	if s.Merges > 0 {
		fmt.Println("\n-- staleness at merge (lag = iteration ahead of the row minimum) --")
		lags := make([]int64, 0, len(s.LagHist))
		for l := range s.LagHist {
			lags = append(lags, l)
		}
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		rows = rows[:0]
		for _, l := range lags {
			rows = append(rows, []string{fmt.Sprintf("%d", l), fmt.Sprintf("%d", s.LagHist[l])})
		}
		fmt.Println(metrics.FormatTable([]string{"lag", "merges"}, rows))

		fmt.Println("\n-- per-unit staleness --")
		rows = rows[:0]
		step := (len(s.Units) + 39) / 40
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(s.Units); i += step {
			u := s.Units[i]
			rows = append(rows, []string{
				fmt.Sprintf("%d", u.Unit),
				fmt.Sprintf("%d", u.Merges),
				fmt.Sprintf("%.2f", u.MeanLag),
				fmt.Sprintf("%d", u.MaxLag),
			})
		}
		fmt.Println(metrics.FormatTable([]string{"unit", "merges", "mean lag", "max lag"}, rows))
	}

	if len(s.StallByCause) > 0 {
		fmt.Println("\n-- stall seconds by cause --")
		causes := make([]string, 0, len(s.StallByCause))
		for c := range s.StallByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		rows = rows[:0]
		for _, c := range causes {
			rows = append(rows, []string{c, fmt.Sprintf("%.2f", s.StallByCause[c])})
		}
		fmt.Println(metrics.FormatTable([]string{"cause", "seconds"}, rows))
	}

	if s.RowsLostFolded > 0 || s.RowsRetransmitted > 0 || s.RetransmitBytes > 0 {
		fmt.Println("\n-- loss & retransmission --")
		fmt.Println(metrics.FormatTable(
			[]string{"outcome", "rows", "bytes"},
			[][]string{
				{"folded back (best-effort)", fmt.Sprintf("%d", s.RowsLostFolded), "-"},
				{"retransmitted (reliable)", fmt.Sprintf("%d", s.RowsRetransmitted), fmt.Sprintf("%.0f", s.RetransmitBytes)},
			}))
		if s.RetransmitSeconds > 0 {
			fmt.Printf("retransmission airtime: %.2fs\n", s.RetransmitSeconds)
		}
	}

	if s.RequestsServed > 0 || s.SnapshotPublishes > 0 {
		fmt.Println("\n-- serving tier --")
		avg := 0.0
		if s.RequestsServed > 0 {
			avg = s.ServeSeconds / float64(s.RequestsServed)
		}
		fmt.Println(metrics.FormatTable(
			[]string{"metric", "value"},
			[][]string{
				{"snapshots published", fmt.Sprintf("%d", s.SnapshotPublishes)},
				{"requests enqueued", fmt.Sprintf("%d", s.RequestsEnqueued)},
				{"requests served", fmt.Sprintf("%d", s.RequestsServed)},
				{"latency avg / max", fmt.Sprintf("%.1fms / %.1fms", 1000*avg, 1000*s.MaxServeSeconds)},
				{"read stalls", fmt.Sprintf("%d (%.2fs parked)", s.ReadStalls, s.ReadStallSeconds)},
				{"max read lag", fmt.Sprintf("%d", s.MaxReadLag)},
			}))
		if s.OpenReadStalls > 0 {
			fmt.Printf("%d read stall(s) left open (requests still parked at trace end)\n", s.OpenReadStalls)
		}
	}

	if s.Detaches > 0 || s.Reconnects > 0 {
		fmt.Printf("\nchurn: %d detaches, %d reconnects, %d resyncs (%d rows, %.0f bytes)\n",
			s.Detaches, s.Reconnects, s.Resyncs, s.ResyncRows, s.ResyncBytes)
	}
	if s.OpenStalls > 0 {
		fmt.Printf("\n%d stall interval(s) left open (run ended or membership ended them)\n", s.OpenStalls)
	}
	if len(s.PairErrors) > 0 {
		fmt.Println("\n-- pairing violations --")
		for _, e := range s.PairErrors {
			fmt.Printf("  %s\n", e)
		}
	}
}
