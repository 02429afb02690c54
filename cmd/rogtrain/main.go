// Command rogtrain trains one workload with a chosen synchronization
// strategy over the simulated robot team and prints live progress — the
// single-run counterpart of rogbench's comparisons.
//
// Usage:
//
//	rogtrain -strategy rog -threshold 4 -env outdoor -minutes 10
//	rogtrain -paradigm crimp -strategy ssp -threshold 20
//	rogtrain -strategy rog -faults "crash:1@120+60,blackout:0@300+30"
//	rogtrain -strategy rog -loss 0.05 -loss-model ge/16 -reliability selective
//	rogtrain -strategy rog -checkpoint-dir ckpt -checkpoint-every 60
//	rogtrain -strategy rog -checkpoint-dir ckpt -resume
//	rogtrain -strategy rog -workers 64 -shards 8 -aggregators 4
//	rogtrain -workers 8 -aggregators 2 -faults "crash:1@60+40,servercrash@90+15" -loss 0.05 -checkpoint-dir ckpt
//	rogtrain -strategy rog -cpuprofile cpu.prof -memprofile mem.prof   # then: go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rog"
	"rog/internal/harness"
	"rog/internal/obs"
)

func main() {
	var (
		paradigm  = flag.String("paradigm", "cruda", "workload: cruda or crimp")
		strategy  = flag.String("strategy", "rog", "bsp, ssp, dssp, flown or rog")
		threshold = flag.Int("threshold", 4, "staleness threshold")
		env       = flag.String("env", "outdoor", "indoor or outdoor")
		workers   = flag.Int("workers", 4, "number of robots")
		minutes   = flag.Float64("minutes", 10, "virtual training minutes")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		csvPath   = flag.String("csv", "", "write the checkpoint series to this CSV file")
		faultSpec = flag.String("faults", "", `fault script, e.g. "crash:1@120+60,blackout:0@300+30,flap:2@60+90/5"`)
		tracePath = flag.String("trace", "", "write a structured event trace to this file (see rogtrace)")
		traceFmt  = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome (chrome://tracing / Perfetto)")
		lossRate  = flag.Float64("loss", 0, "mean packet-loss rate on every link (0 disables the loss channel)")
		lossModel = flag.String("loss-model", "ge", `loss model: "ge" (bursty, optionally "ge/16" for a 16-packet mean burst) or "iid"`)
		relMode   = flag.String("reliability", "selective", "lost-row recovery: selective (only the Must prefix retransmits) or all")
		ckptDir   = flag.String("checkpoint-dir", "", "durable checkpoint store directory (created if missing)")
		ckptEvery = flag.Float64("checkpoint-every", 60, "snapshot interval in virtual seconds")
		resume    = flag.Bool("resume", false, "resume the run recorded in -checkpoint-dir instead of starting fresh")
		shards    = flag.Int("shards", 0, "split the server state into this many unit-range shards (0 = 1, the single-lock server)")
		aggs      = flag.Int("aggregators", 0, "route pushes through this many edge aggregators (0 = direct to the root server)")
	)
	prof := obs.ProfileFlags()
	flag.Parse()

	// A stray positional argument usually means a mistyped flag (e.g.
	// "threshold 4" without the dash); training with silently ignored
	// arguments — or with zero values — is the failure mode, so refuse.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rogtrain: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *paradigm != "cruda" && *paradigm != "crimp" {
		fmt.Fprintf(os.Stderr, "rogtrain: unknown paradigm %q (want cruda or crimp)\n", *paradigm)
		os.Exit(2)
	}
	if *env != "indoor" && *env != "outdoor" {
		fmt.Fprintf(os.Stderr, "rogtrain: unknown env %q (want indoor or outdoor)\n", *env)
		os.Exit(2)
	}
	if *minutes <= 0 {
		fmt.Fprintf(os.Stderr, "rogtrain: minutes must be > 0, got %g\n", *minutes)
		os.Exit(2)
	}

	faults, err := rog.ParseFaultSchedule(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(2)
	}
	if *ckptDir == "" {
		// An explicit -checkpoint-every or -resume without a store directory
		// would silently checkpoint nothing; refuse rather than ignore.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-every" || f.Name == "resume" {
				fmt.Fprintf(os.Stderr, "rogtrain: -%s needs -checkpoint-dir\n", f.Name)
				os.Exit(2)
			}
		})
	} else if *ckptEvery <= 0 {
		fmt.Fprintf(os.Stderr, "rogtrain: checkpoint-every must be > 0, got %g\n", *ckptEvery)
		os.Exit(2)
	}
	reliability, err := rog.ParseLossReliability(*relMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(2)
	}
	var loss rog.LossSpec
	if *lossRate > 0 {
		kind, burst, _ := strings.Cut(*lossModel, "/")
		spec := fmt.Sprintf("%s:%g", kind, *lossRate)
		if burst != "" {
			spec += "/" + burst
		}
		if loss, err = rog.ParseLossSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
			os.Exit(2)
		}
	} else {
		// An explicit -loss-model or -reliability without -loss would
		// silently train losslessly; refuse rather than ignore.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "loss-model" || f.Name == "reliability" {
				fmt.Fprintf(os.Stderr, "rogtrain: -%s needs -loss\n", f.Name)
				os.Exit(2)
			}
		})
	}
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "rogtrain: unknown trace format %q (want jsonl or chrome)\n", *traceFmt)
		os.Exit(2)
	}
	if *tracePath == "" {
		// An explicit -trace-format without -trace would silently trace
		// nothing; refuse rather than ignore.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trace-format" {
				fmt.Fprintln(os.Stderr, "rogtrain: -trace-format needs -trace")
				os.Exit(2)
			}
		})
	}
	var strat rog.Strategy
	switch strings.ToLower(*strategy) {
	case "bsp":
		strat = rog.BSP
	case "ssp":
		strat = rog.SSP
	case "flown":
		strat = rog.FLOWN
	case "rog":
		strat = rog.ROG
	case "dssp":
		strat = rog.DSSP
	default:
		fmt.Fprintf(os.Stderr, "rogtrain: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	e := rog.Outdoor
	if *env == "indoor" {
		e = rog.Indoor
	}

	// The run every harness experiment starts from, at paper-scale workload
	// sizes, for the requested duration.
	o := harness.EndToEndOptions{
		Paradigm: *paradigm, Env: e, Workers: *workers, Scale: harness.Full,
		Faults: faults, Loss: loss, Reliability: reliability,
	}
	o.Scale.VirtualSeconds, o.Scale.CheckpointEvery, o.Scale.Seed = *minutes*60, 10, *seed
	cfg := o.Config(harness.SystemSpec{Strategy: strat, Threshold: *threshold})
	cfg.Shards, cfg.Aggregators = *shards, *aggs
	if *ckptDir != "" {
		st, err := rog.OpenCheckpoints(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
			os.Exit(1)
		}
		cfg.Durable = st
		cfg.SnapshotEverySeconds = *ckptEvery
		cfg.Resume = *resume
	}
	// Which values and combinations make a run is Config.Validate's call, made
	// here so a bad one is refused before the workload is pretrained.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(2)
	}
	var tracer interface {
		rog.Tracer
		Close() error
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
			os.Exit(1)
		}
		if *traceFmt == "chrome" {
			tracer = rog.NewChromeTracer(f)
		} else {
			tracer = rog.NewJSONLTracer(f)
		}
		cfg.Trace = tracer
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(1)
	}
	metric := "trajectory error"
	if *paradigm == "cruda" {
		metric = "accuracy"
		fmt.Println("pretraining shared model on the clean domain...")
	}
	wl := o.NewWorkload()
	if c, ok := wl.(*harness.CRUDAWorkload); ok {
		fmt.Printf("pretrained: clean acc %.3f, after domain shift %.3f\n",
			c.PretrainCleanAcc, c.PretrainNoisyAcc)
	}
	res, err := rog.Run(cfg, wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: closing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%s)\n", *tracePath, *traceFmt)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\n%s on %s (%s, %d workers, %.0f virtual minutes)\n",
		res.Label(), *paradigm, e, *workers, *minutes)
	for _, p := range res.Series.Points {
		fmt.Printf("  t=%7.1fs  iter=%5d  energy=%9.0fJ  %s=%.4f\n",
			p.Time, p.Iter, p.Energy, metric, p.Value)
	}
	c := res.Composition
	fmt.Printf("\navg iteration: compute %.2fs, comm %.2fs, stall %.2fs (stall share %.1f%%)\n",
		c.Compute, c.Comm, c.Stall, 100*res.StallFrac)
	fmt.Printf("completed %d iterations, %.0fJ total\n", res.Iterations, res.TotalJoules)
	if len(faults) > 0 {
		fmt.Printf("churn: %s\n", res.Churn.String())
	}
	if res.Recovery.Enabled() {
		fmt.Printf("recovery: %s\n", res.Recovery.String())
	}
	if loss.Enabled() {
		fmt.Printf("loss channel %s, %s reliability: %s\n", loss, reliability, res.Loss.String())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := harness.WriteSeriesCSV(f, []*rog.Result{res}); err != nil {
			fmt.Fprintf(os.Stderr, "rogtrain: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}
}
