// Command roglint runs the repo's invariant analyzer suite (see
// internal/analysis) over the module and prints findings as
// file:line:col: [pass] message. It exits 1 when any finding survives the
// //roglint:ignore suppressions, 2 on usage or load errors — so the
// verify gate can fail a PR before a single test runs and can tell "the
// tree is dirty" apart from "the analyzer could not even load it".
//
// Usage:
//
//	roglint ./...                 # whole module (the default)
//	roglint ./internal/livenet    # one package's findings (the whole module is still analysed)
//	roglint -passes lockguard,errdrop ./...
//	roglint -json ./...           # findings as a JSON array on stdout
//	roglint -timing ./...         # per-pass wall time on stderr
//	roglint -list                 # show the passes
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rog/internal/analysis"
)

func main() {
	var (
		passNames = flag.String("passes", "", "comma-separated pass names to run (default: all)")
		list      = flag.Bool("list", false, "list the available passes and exit")
		asJSON    = flag.Bool("json", false, "emit findings as JSON ({pass, file, line, col, msg}) on stdout")
		timing    = flag.Bool("timing", false, "report per-pass wall time on stderr")
	)
	flag.Parse()

	if *list {
		for _, p := range analysis.DefaultPasses() {
			fmt.Printf("%-10s %s\n", p.Name(), p.Doc())
		}
		return
	}

	passes, err := analysis.SelectPasses(*passNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roglint: %v\n", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "roglint: %v\n", err)
		os.Exit(2)
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roglint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(root, modPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roglint: load error: %v\n", err)
		os.Exit(2)
	}

	diags, timings, err := analysis.AnalyzeSelected(pkgs, passes, modPath, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "roglint: %v\n", err)
		os.Exit(2)
	}
	for i := range diags {
		if r, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = r
		}
	}

	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "roglint: pass %-10s %8.3fs\n", tm.Pass, tm.Seconds)
		}
	}

	if *asJSON {
		raw, err := analysis.EncodeJSON(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "roglint: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(raw))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "roglint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
