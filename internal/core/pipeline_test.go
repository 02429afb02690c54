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

// TestPipelineRespectsEveryGate runs every strategy at loop depth 1: the
// overlap is the runtime's, so each strategy's own staleness bound must hold
// at every kernel event and the run must still complete.
func TestPipelineRespectsEveryGate(t *testing.T) {
	for _, tc := range []struct {
		strategy  Strategy
		threshold int
		bound     int64
	}{
		{BSP, 0, 1},
		{SSP, 4, 4},
		{FLOWN, 4, 4},
		{ROG, 4, 4},
	} {
		cfg := testConfig(tc.strategy, tc.threshold)
		cfg.Pipeline = true
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		c := newCluster(cfg, newTestWorkload(3, 32))
		c.launch()
		for c.k.Step() {
			if ahead := c.state.Versions.MaxAhead(); ahead > tc.bound {
				t.Fatalf("pipelined %v: staleness bound violated: %d > %d", tc.strategy, ahead, tc.bound)
			}
		}
		if c.iter[0] != int64(cfg.MaxIterations) {
			t.Errorf("pipelined %v: worker 0 completed %d of %d iterations", tc.strategy, c.iter[0], cfg.MaxIterations)
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
