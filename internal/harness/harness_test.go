package harness

import (
	"math"
	"strings"
	"testing"

	"rog/internal/core"
	"rog/internal/trace"
)

// tinyScale keeps unit-test experiments fast.
var tinyScale = Scale{
	Name:            "tiny",
	VirtualSeconds:  90,
	CheckpointEvery: 5,
	PretrainIters:   150,
	ObsPerBot:       40,
	TestObs:         4,
	MicroSeconds:    60,
	Seed:            1,
}

func tinyCRUDAOptions() CRUDAOptions {
	o := DefaultCRUDAOptions()
	o.PretrainIters = 150
	return o
}

func TestCRUDAWorkloadStory(t *testing.T) {
	wl := NewCRUDA(tinyCRUDAOptions())
	// The paper's setup: pretrained accuracy is high on the clean domain
	// and substantially degraded on the shifted one.
	if wl.PretrainCleanAcc < 0.5 {
		t.Fatalf("pretrain clean acc %.3f too low", wl.PretrainCleanAcc)
	}
	if wl.PretrainNoisyAcc >= wl.PretrainCleanAcc-0.05 {
		t.Fatalf("domain shift did not degrade: clean %.3f noisy %.3f",
			wl.PretrainCleanAcc, wl.PretrainNoisyAcc)
	}
	// Evaluate starts at the degraded level.
	if e := wl.Evaluate(); math.Abs(e-wl.PretrainNoisyAcc) > 1e-9 {
		t.Fatalf("Evaluate %.3f != pretrain noisy %.3f", e, wl.PretrainNoisyAcc)
	}
	if !wl.Increasing() {
		t.Fatal("CRUDA metric must be increasing")
	}
}

func TestCRUDAReplicasIdentical(t *testing.T) {
	wl := NewCRUDA(tinyCRUDAOptions())
	p0 := wl.Model(0).Params()
	for w := 1; w < 4; w++ {
		pw := wl.Model(w).Params()
		for i := range p0 {
			if !p0[i].Equal(pw[i]) {
				t.Fatalf("replica %d differs at param %d", w, i)
			}
		}
	}
}

func TestCRUDAGradientsFlow(t *testing.T) {
	wl := NewCRUDA(tinyCRUDAOptions())
	loss := wl.ComputeGradients(0)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	var sum float64
	for _, g := range wl.Model(0).Grads() {
		sum += g.SumAbs()
	}
	if sum == 0 {
		t.Fatal("no gradients accumulated")
	}
}

func TestCRIMPWorkloadBasics(t *testing.T) {
	o := DefaultCRIMPOptions()
	o.ObsPerBot = 30
	o.TestObs = 4
	wl := NewCRIMP(o)
	if wl.Increasing() {
		t.Fatal("CRIMP metric must be decreasing (error)")
	}
	before := wl.Evaluate()
	if before <= 0 {
		t.Fatalf("initial trajectory error %v", before)
	}
	if loss := wl.ComputeGradients(1); loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	p0, p1 := wl.Model(0).Params(), wl.Model(1).Params()
	for i := range p0 {
		if !p0[i].Equal(p1[i]) {
			t.Fatal("CRIMP replicas differ initially")
		}
	}
}

func TestRunEndToEndSmoke(t *testing.T) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda",
		Env:      trace.Outdoor,
		Scale:    tinyScale,
		Systems:  []SystemSpec{{core.BSP, 0}, {core.ROG, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	bsp, rog := results[0], results[1]
	if bsp.Iterations == 0 || rog.Iterations == 0 {
		t.Fatal("no iterations")
	}
	// The headline claim at any scale: ROG completes more iterations in
	// the same outdoor time budget (higher training throughput).
	if rog.Iterations <= bsp.Iterations {
		t.Fatalf("ROG throughput %d <= BSP %d", rog.Iterations, bsp.Iterations)
	}
	// Renderers produce non-empty aligned tables.
	rep := filled(true, results...)
	for name, s := range map[string]string{
		"composition": compositionTable(rep.Systems),
		"byTime":      seriesByTime(rep.Systems, 30),
		"byIter":      seriesByIteration(rep.Systems, 5),
		"energy":      energyTable(rep.Systems, rep.Target, true),
	} {
		if !strings.Contains(s, "ROG-4") || !strings.Contains(s, "BSP") {
			t.Fatalf("%s table missing systems:\n%s", name, s)
		}
	}
	if summary(rep.Systems, true) == "" {
		t.Fatal("empty summary")
	}
}

func TestSystemSpecLabels(t *testing.T) {
	if (SystemSpec{core.BSP, 0}).Label() != "BSP" {
		t.Fatal("BSP label")
	}
	if (SystemSpec{core.ROG, 20}).Label() != "ROG-20" {
		t.Fatal("ROG label")
	}
	if len(PaperSystems()) != 6 || len(SensitivitySystems()) != 3 {
		t.Fatal("system lineups wrong")
	}
}

func TestRegistryCompleteness(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig1", "fig3", "fig6", "fig7", "fig8", "fig9batch", "fig9workers",
		"fig10", "table1", "table2", "table3",
		"ablation-granularity", "ablation-importance", "ablation-speculative",
		"churn",
	}
	// +7: ext-pipeline, ext-convmlp, ext-gridmap, ext-loss, ext-recovery,
	// fleet, serve
	if len(reg) != len(want)+7 {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want)+7)
	}
	for _, id := range []string{"ext-loss", "ext-recovery", "fleet", "serve"} {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %q missing", id)
		}
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestFastExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig3", "table1", "table2"} {
		out := runTiny(t, id).Text
		if len(out) < 50 {
			t.Fatalf("%s: suspiciously short output:\n%s", id, out)
		}
	}
}

func TestChurnExperiment(t *testing.T) {
	out := runTiny(t, "churn").Text
	for _, col := range []string{"disconnects", "reconnects", "rows resynced", "detach-stall"} {
		if !strings.Contains(out, col) {
			t.Fatalf("churn report missing %q:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "ROG-4") || !strings.Contains(out, "BSP") {
		t.Fatalf("churn report missing systems:\n%s", out)
	}
}

func TestFig8MicroExperiment(t *testing.T) {
	out := runTiny(t, "fig8").Text
	if !strings.Contains(out, "bandwidth") || !strings.Contains(out, "tx rate") {
		t.Fatalf("fig8 output missing columns:\n%s", out)
	}
}

func TestParadigmConfig(t *testing.T) {
	c, b := paradigmConfig("cruda")
	if c != 2.64 || b != 2.1e6 {
		t.Fatal("cruda constants")
	}
	c, b = paradigmConfig("crimp")
	if c != 1.4 || b != 0.76e6 {
		t.Fatal("crimp constants")
	}
}
