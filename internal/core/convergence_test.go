package core

import (
	"testing"

	"rog/internal/trace"
)

// TestTheorem1ROGMatchesBSPOnIdealNetwork empirically checks the
// convergence claim of Sec. IV-C: because no gradient contribution is ever
// lost (rows are accumulated until transmitted) and divergence is bounded
// by RSP, ROG converges to the same quality as BSP. On an ideal (stable)
// network with a long horizon, their final accuracies must agree within
// the run-to-run noise band.
func TestTheorem1ROGMatchesBSPOnIdealNetwork(t *testing.T) {
	run := func(s Strategy, th int) float64 {
		cfg := Config{
			Strategy:        s,
			Workers:         3,
			Threshold:       th,
			Env:             trace.Indoor, // unused: seed picks the trace; indoor is the calmer profile
			Seed:            42,
			ComputeSeconds:  1.0,
			PaperModelBytes: 2.1e6,
			LR:              0.08,
			Momentum:        0.9,
			MaxIterations:   150,
			CheckpointEvery: 25,
		}
		wl := newTestWorkload(3, 77)
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		// Use the best achieved value: the final checkpoint carries batch
		// noise irrelevant to the convergence question.
		best := 0.0
		for _, p := range res.Series.Points {
			if p.Value > best {
				best = p.Value
			}
		}
		return best
	}
	bsp := run(BSP, 0)
	rog4 := run(ROG, 4)
	rog8 := run(ROG, 8)
	if bsp < 0.8 {
		t.Fatalf("BSP did not converge on the easy task: %.3f", bsp)
	}
	for name, v := range map[string]float64{"ROG-4": rog4, "ROG-8": rog8} {
		if v < bsp-0.08 {
			t.Fatalf("%s best %.3f well below BSP %.3f — convergence guarantee violated", name, v, bsp)
		}
	}
}

// TestROGLosesNoGradientMass checks the proof's premise directly: after a
// run, the total gradient mass still parked in local accumulators, server
// copies and compression residuals is small relative to what the run
// produced — nothing leaks.
func TestROGLosesNoGradientMass(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.MaxIterations = 30
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := newTestWorkload(3, 88)
	c := newCluster(cfg, wl)
	c.launch()
	c.k.RunUntilIdle(10_000_000)

	var parked float64
	for w := 0; w < cfg.Workers; w++ {
		for u := 0; u < c.part.NumUnits(); u++ {
			parked += c.rep[w].Local.MeanAbs(u) + c.state.Acc[w].MeanAbs(u)
		}
	}
	// Parked mass is bounded by a few iterations' worth of gradients, not
	// the whole run's: with 30 iterations and threshold 4, anything above
	// ~threshold iterations' worth would mean rows are being dropped.
	var oneIter float64
	wl2 := newTestWorkload(3, 88)
	wl2.ComputeGradients(0)
	for _, g := range wl2.Model(0).Grads() {
		oneIter += g.MeanAbs() * float64(g.Rows)
	}
	if parked > oneIter*float64(cfg.Workers)*float64(cfg.Threshold)*4 {
		t.Fatalf("parked gradient mass %.4f too large vs one-iteration mass %.4f", parked, oneIter)
	}
}
