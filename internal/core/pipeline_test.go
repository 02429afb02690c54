package core

import "testing"

func TestPipelinedROGRuns(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.Pipeline = true
	res, err := Run(cfg, newTestWorkload(3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != cfg.MaxIterations {
		t.Fatalf("pipelined ROG completed %d of %d", res.Iterations, cfg.MaxIterations)
	}
	if res.TotalJoules <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestPipelinedROGRespectsRSP(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.Pipeline = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := newTestWorkload(3, 32)
	c := newCluster(cfg, wl)
	c.start()
	for c.k.Step() {
		if ahead := c.state.Versions.MaxAhead(); ahead > int64(cfg.Threshold) {
			t.Fatalf("pipelined RSP bound violated: %d > %d", ahead, cfg.Threshold)
		}
	}
}

func TestPipelineImprovesThroughput(t *testing.T) {
	// Overlapping compute with comm must finish more iterations in the
	// same virtual time budget (that is its entire point).
	run := func(pipeline bool) *Result {
		cfg := testConfig(ROG, 4)
		cfg.MaxIterations = 0
		cfg.MaxVirtualSeconds = 240
		cfg.Pipeline = pipeline
		res, err := Run(cfg, newTestWorkload(4, 33))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	piped := run(true)
	if piped.Iterations <= plain.Iterations {
		t.Fatalf("pipeline did not help: %d <= %d", piped.Iterations, plain.Iterations)
	}
}

func TestPipelinedROGTrains(t *testing.T) {
	wl := newTestWorkload(3, 34)
	before := wl.Evaluate()
	cfg := testConfig(ROG, 4)
	cfg.Pipeline = true
	cfg.MaxIterations = 60
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	best := before
	for _, p := range res.Series.Points {
		if p.Value > best {
			best = p.Value
		}
	}
	if best <= before+0.1 {
		t.Fatalf("pipelined ROG did not learn: %.3f -> best %.3f", before, best)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(ROG, 4)
		cfg.Pipeline = true
		res, err := Run(cfg, newTestWorkload(3, 35))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalJoules != b.TotalJoules || a.FinalValue != b.FinalValue {
		t.Fatal("pipelined run not deterministic")
	}
}
