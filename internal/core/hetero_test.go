package core

import (
	"testing"

	"rog/internal/trace"
)

func TestComputeSkewValidation(t *testing.T) {
	cfg := testConfig(BSP, 0)
	cfg.ComputeSkew = []float64{1, 2} // 2 entries, 3 workers
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad skew length accepted")
	}
	cfg = testConfig(BSP, 0)
	cfg.Traces = []*trace.Trace{trace.Constant(50, 60, 0.1)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad traces length accepted")
	}
}

// TestHeterogeneityStallsBSPAndDynamicBatchingFixesIt reproduces the
// paper's setup note: with heterogeneous devices (a slow laptop in the
// team), BSP stalls on the slow computer every iteration; dynamic batching
// equalizes compute time and removes that stall (Sec. VI, [49]). A team
// balanced that way is a homogeneous team computing for the skewed team's
// mean time, which is what the balanced run is.
func TestHeterogeneityStallsBSPAndDynamicBatchingFixesIt(t *testing.T) {
	run := func(skew []float64, computeScale float64) *Result {
		cfg := testConfig(BSP, 0)
		cfg.MaxIterations = 0
		cfg.MaxVirtualSeconds = 400
		cfg.ComputeSkew = skew
		cfg.ComputeSeconds *= computeScale
		// A calm constant channel isolates the compute heterogeneity.
		cfg.Traces = []*trace.Trace{
			trace.Constant(90, 600, 0.1),
			trace.Constant(90, 600, 0.1),
			trace.Constant(90, 600, 0.1),
		}
		res, err := Run(cfg, newTestWorkload(3, 41))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	skew := []float64{1, 1, 2} // one device computes twice as long
	stalled := run(skew, 1)
	balanced := run(nil, (1.0+1+2)/3)

	// Without dynamic batching, the two fast devices stall ~1 compute unit
	// per iteration waiting on the slow one.
	if stalled.Composition.Stall < 0.3 {
		t.Fatalf("heterogeneous BSP barely stalled: %.3fs", stalled.Composition.Stall)
	}
	if balanced.Composition.Stall > stalled.Composition.Stall/3 {
		t.Fatalf("dynamic batching did not remove the stall: %.3fs vs %.3fs",
			balanced.Composition.Stall, stalled.Composition.Stall)
	}
	// Balanced team completes more iterations in the same time budget.
	if balanced.Iterations <= stalled.Iterations {
		t.Fatalf("dynamic batching throughput %d <= %d", balanced.Iterations, stalled.Iterations)
	}
}

// TestTraceReplayDeterminism: injecting recorded traces reproduces a run
// exactly — the artifact's tc-replay property.
func TestTraceReplayDeterminism(t *testing.T) {
	traces := []*trace.Trace{
		trace.GenerateEnv(trace.Outdoor, 120, 1),
		trace.GenerateEnv(trace.Outdoor, 120, 2),
		trace.GenerateEnv(trace.Outdoor, 120, 3),
	}
	run := func() *Result {
		cfg := testConfig(ROG, 4)
		cfg.Traces = traces
		cfg.Env = trace.Indoor // must be ignored when traces are injected
		res, err := Run(cfg, newTestWorkload(3, 43))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalJoules != b.TotalJoules || a.FinalValue != b.FinalValue {
		t.Fatal("trace replay not deterministic")
	}

	// A different trace set changes the outcome (proving the injected
	// traces are actually used).
	cfg := testConfig(ROG, 4)
	cfg.Traces = []*trace.Trace{
		trace.Constant(5, 120, 0.1),
		trace.Constant(5, 120, 0.1),
		trace.Constant(5, 120, 0.1),
	}
	res, err := Run(cfg, newTestWorkload(3, 43))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJoules == a.TotalJoules {
		t.Fatal("injected traces appear to be ignored")
	}
}
