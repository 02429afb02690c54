package rog

import (
	"strings"
	"testing"
)

// TestPublicAPIRun exercises the full public surface the way a downstream
// user would: build a workload, run two strategies, compare.
func TestPublicAPIRun(t *testing.T) {
	opts := DefaultCRUDAOptions()
	opts.PretrainIters = 100
	wl := NewCRUDAWorkload(opts)
	cfg := Config{
		Strategy:          ROG,
		Workers:           4,
		Threshold:         4,
		Env:               Outdoor,
		Seed:              3,
		MaxVirtualSeconds: 90,
		CheckpointEvery:   5,
	}
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.TotalJoules <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Label() != "ROG-4" {
		t.Fatalf("label %q", res.Label())
	}
}

func TestPublicAPICRIMP(t *testing.T) {
	opts := DefaultCRIMPOptions()
	opts.ObsPerBot = 30
	opts.TestObs = 3
	wl := NewCRIMPWorkload(opts)
	cfg := Config{
		Strategy:          BSP,
		Workers:           4,
		Env:               Indoor,
		Seed:              5,
		ComputeSeconds:    1.4,
		PaperModelBytes:   0.76e6,
		MaxVirtualSeconds: 60,
		CheckpointEvery:   5,
	}
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("not-a-figure", QuickScale); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("registry too small: %d", len(exps))
	}
	out, err := RunExperiment("table1", QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "0.32") {
		t.Fatalf("table1 missing the paper's MTA(4)=0.32:\n%s", out.Text)
	}
}

func TestGenerateTrace(t *testing.T) {
	tr := GenerateTrace(Outdoor, 30, 1)
	if tr.Duration() != 30 || tr.Mean() <= 0 {
		t.Fatalf("bad trace: dur=%v mean=%v", tr.Duration(), tr.Mean())
	}
}

func TestRunEndToEndPublic(t *testing.T) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda",
		Env:      Outdoor,
		Scale: ExperimentScale{
			Name: "t", VirtualSeconds: 60, CheckpointEvery: 5, PretrainIters: 80,
		},
		Systems: []SystemSpec{{Strategy: BSP}, {Strategy: ROG, Threshold: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	table := CompositionTable(results)
	if !strings.Contains(table, "BSP") || !strings.Contains(table, "ROG-4") {
		t.Fatalf("composition table:\n%s", table)
	}
	if SeriesByTime(results, 20) == "" {
		t.Fatal("empty series")
	}
}
