// Command rogbench reruns the paper's experiments and prints the tables
// and series each figure plots.
//
// Usage:
//
//	rogbench -list
//	rogbench -exp fig1            # quick scale (~1/9 duration)
//	rogbench -exp fig7 -full      # paper scale (60 virtual minutes)
//	rogbench -all                 # every experiment, quick scale
//	rogbench -exp fig1 -json BENCH_fig1.json   # machine-readable report
//	rogbench -exp fig1 -seeds 5   # mean±std across seeds
//	rogbench -drift BENCH_6.json  # rerun a snapshot; exit 1 if any leaf moved
//	rogbench -exp fig1 -cpuprofile cpu.prof -memprofile mem.prof   # then: go tool pprof -top cpu.prof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"rog/internal/harness"
	"rog/internal/obs"
)

// options is the parsed command line.
type options struct {
	exp, jsonPath, drift string
	all, full, list      bool
	seeds                int
}

// mode decides what one invocation does — "list", "all", "drift", "json",
// "seeds" or "exp" — and refuses flag combinations where one flag would
// silently win over another.
func mode(o options) (string, error) {
	picked := 0
	for _, on := range []bool{o.list, o.all, o.drift != "", o.exp != ""} {
		if on {
			picked++
		}
	}
	switch {
	case o.seeds < 1:
		return "", fmt.Errorf("-seeds must be >= 1, got %d", o.seeds)
	case picked > 1:
		return "", errors.New("-list, -all, -exp and -drift exclude each other")
	case (o.jsonPath != "" || o.seeds > 1) && o.exp == "":
		return "", errors.New("-json and -seeds need -exp")
	case o.jsonPath != "" && o.seeds > 1:
		return "", errors.New("-json and -seeds exclude each other")
	case o.full && (o.list || o.drift != ""):
		return "", errors.New("-full has no effect with -list or -drift (a snapshot reruns at its own scale)")
	case o.list:
		return "list", nil
	case o.all:
		return "all", nil
	case o.drift != "":
		return "drift", nil
	case o.jsonPath != "":
		return "json", nil
	case o.seeds > 1:
		return "seeds", nil
	case o.exp != "":
		return "exp", nil
	}
	return "", errors.New("pick one of -list, -all, -exp or -drift")
}

// usage reports a command-line mistake and exits 2; fail reports a run
// failure and exits 1.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rogbench: "+format+"\n", args...)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
	os.Exit(1)
}

// seedIDs lists the plain comparisons, the experiments -seeds replicates.
func seedIDs() (ids []string) {
	for _, e := range harness.Registry() {
		if e.Options != nil {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "", "experiment id to run (see -list)")
	flag.BoolVar(&o.all, "all", false, "run every experiment")
	flag.BoolVar(&o.full, "full", false, "run at paper scale (60 virtual minutes per system)")
	flag.BoolVar(&o.list, "list", false, "list available experiments")
	flag.IntVar(&o.seeds, "seeds", 1, "replicate -exp ("+strings.Join(seedIDs(), ", ")+") across N seeds and report mean±std")
	flag.StringVar(&o.jsonPath, "json", "", "write a machine-readable report of -exp ("+strings.Join(harness.JSONExperimentIDs(), ", ")+") to this file")
	flag.StringVar(&o.drift, "drift", "", "rerun the experiment recorded in this BENCH_*.json snapshot and list every leaf that differs (exit 1 if any does)")
	prof := obs.ProfileFlags()
	flag.Parse()

	// Refuse stray positional arguments (a mistyped flag would otherwise
	// run the default experiment set with its value silently dropped).
	if flag.NArg() > 0 {
		usage("unexpected argument %q", flag.Arg(0))
	}
	m, err := mode(o)
	if err != nil {
		usage("%v (see -h)", err)
	}
	scale := harness.Quick
	if o.full {
		scale = harness.Full
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fail(err)
	}
	switch m {
	case "list":
		for _, e := range harness.Registry() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
	case "all":
		for _, e := range harness.Registry() {
			runOne(e, scale)
		}
	case "drift":
		runDrift(o.drift)
	case "json":
		writeJSON(find(o.exp), scale, o.jsonPath)
	case "seeds":
		runSeeds(find(o.exp), scale, o.seeds)
	case "exp":
		runOne(find(o.exp), scale)
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// find resolves an experiment id through the registry.
func find(id string) harness.Experiment {
	e, ok := harness.Find(id)
	if !ok {
		usage("unknown experiment %q (see -list)", id)
	}
	return e
}

// runSeeds replicates a plain comparison's lineup across seeds 1..n.
func runSeeds(e harness.Experiment, scale harness.Scale, n int) {
	if e.Options == nil {
		usage("-seeds replicates a plain comparison (%s), not %q", strings.Join(seedIDs(), ", "), e.ID)
	}
	opts := *e.Options
	opts.Scale = scale
	seedList := make([]uint64, n)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	start := time.Now()
	sums, err := harness.RunEndToEndSeeds(opts, seedList)
	if err != nil {
		fail(err)
	}
	fmt.Printf("== %s across %d seeds (scale=%s) ==\n\n", e.ID, n, scale.Name)
	fmt.Println(harness.SeedSummaryTable(sums))
	fmt.Printf("[completed in %.1fs wall clock]\n", time.Since(start).Seconds())
}

// runDrift reruns the experiment a BENCH_*.json snapshot recorded, at the
// snapshot's own scale, and lists every leaf of the report that differs.
// The virtual clock is deterministic, so any difference is a behaviour
// change: the command exits 1 on one, as it does when the snapshot cannot
// be read or the experiment cannot run.
func runDrift(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	base, err := harness.ReadJSONReport(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	scale := harness.Quick
	if base.Scale == harness.Full.Name {
		scale = harness.Full
	} else if base.Scale != scale.Name {
		usage("%s was recorded at scale %q; -drift reruns only %s or %s snapshots",
			path, base.Scale, scale.Name, harness.Full.Name)
	}
	start := time.Now()
	cur, err := find(base.Experiment).Run(scale)
	if err != nil {
		fail(err)
	}
	lines, err := harness.DriftTable(base, cur)
	if err != nil {
		fail(err)
	}
	fmt.Printf("bench drift: %s vs %s (scale=%s): %d differing leaves\n",
		cur.Experiment, path, scale.Name, len(lines))
	for i, l := range lines {
		if i == 40 { // cap the listing; the count above stays exact
			fmt.Printf("  … and %d more\n", len(lines)-i)
			break
		}
		fmt.Println("  " + l)
	}
	fmt.Printf("[drift computed in %.1fs wall clock]\n", time.Since(start).Seconds())
	if len(lines) > 0 {
		os.Exit(1)
	}
}

// writeJSON runs one experiment and writes its structured report.
func writeJSON(e harness.Experiment, scale harness.Scale, path string) {
	if ids := harness.JSONExperimentIDs(); !slices.Contains(ids, e.ID) {
		usage("experiment %q has no JSON report (want %s)", e.ID, strings.Join(ids, ", "))
	}
	start := time.Now()
	rep, err := e.Run(scale)
	if err != nil {
		fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s report written to %s (%d systems, scale=%s, %.1fs wall clock)\n",
		e.ID, path, len(rep.Systems), scale.Name, time.Since(start).Seconds())
}

func runOne(e harness.Experiment, scale harness.Scale) {
	start := time.Now()
	rep, err := e.Run(scale)
	if err != nil {
		fail(err)
	}
	fmt.Println(rep.Text)
	fmt.Printf("[%s completed in %.1fs wall clock, scale=%s]\n\n", e.ID, time.Since(start).Seconds(), scale.Name)
}
