// Command bandtrace generates and inspects synthetic robotic-IoT bandwidth
// traces (the Fig. 3 substrate), and can export them as CSV for replay —
// the same role as the paper's recorded `tc` traces.
//
// Usage:
//
//	bandtrace -env outdoor -duration 300  # print statistics
//	bandtrace -env indoor -csv trace.csv  # export samples
//	bandtrace -stats trace.csv            # analyze a recorded CSV
package main

import (
	"flag"
	"fmt"
	"os"

	"rog"
	"rog/internal/trace"
)

func main() {
	var (
		env      = flag.String("env", "outdoor", "environment profile: indoor or outdoor")
		duration = flag.Float64("duration", 300, "trace duration in seconds")
		seed     = flag.Uint64("seed", 42, "generator seed")
		csvPath  = flag.String("csv", "", "write the trace to this CSV file")
		statsCSV = flag.String("stats", "", "analyze a recorded trace CSV instead of generating")
	)
	flag.Parse()

	var tr *rog.BandwidthTrace
	if *statsCSV != "" {
		f, err := os.Open(*statsCSV)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = trace.ReadCSV(f)
		if err != nil {
			fatal(err)
		}
	} else {
		e := rog.Outdoor
		if *env == "indoor" {
			e = rog.Indoor
		}
		tr = rog.GenerateTrace(e, *duration, *seed)
	}

	fmt.Printf("samples:                 %d (dt=%.2fs, %.0fs total)\n", len(tr.Samples), tr.Dt, tr.Duration())
	fmt.Printf("mean bandwidth:          %.1f Mbps\n", tr.Mean())
	fmt.Printf("min bandwidth:           %.2f Mbps\n", tr.Min())
	fmt.Printf("s per >=20%% fluctuation: %.2f  (paper: ~0.4s)\n", tr.MeanFluctuationInterval(0.2))
	fmt.Printf("s per >=40%% fluctuation: %.2f  (paper: ~1.2s)\n", tr.MeanFluctuationInterval(0.4))
	fmt.Printf("time below 5 Mbps:       %.1f%%\n", 100*tr.FractionBelow(5))
	fmt.Printf("profile:                 %s\n", tr.Sparkline(72))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bandtrace: %v\n", err)
	os.Exit(1)
}
