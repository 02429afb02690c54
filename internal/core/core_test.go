package core

import (
	"math"
	"testing"

	"rog/internal/atp"
	"rog/internal/nn"
	"rog/internal/tensor"
	"rog/internal/trace"
)

// testWorkload is a tiny classification task: each worker draws batches
// from its own Gaussian-cluster shard. Small enough that a full experiment
// runs in milliseconds, real enough that gradients carry signal.
type testWorkload struct {
	models    []*nn.Sequential
	rngs      []*tensor.RNG
	centroids [][]float32
	classes   int
	dim       int
	batch     int
	evalX     *tensor.Matrix
	evalY     []int
}

func newTestWorkload(workers int, seed uint64) *testWorkload {
	const (
		classes = 4
		dim     = 6
		batch   = 8
	)
	r := tensor.NewRNG(seed)
	tw := &testWorkload{classes: classes, dim: dim, batch: batch}
	for c := 0; c < classes; c++ {
		cent := make([]float32, dim)
		for i := range cent {
			cent[i] = float32(r.Norm() * 2)
		}
		tw.centroids = append(tw.centroids, cent)
	}
	arch := tensor.NewRNG(seed + 999)
	proto := nn.NewClassifierMLP(dim, []int{10}, classes, arch)
	for w := 0; w < workers; w++ {
		m := nn.NewClassifierMLP(dim, []int{10}, classes, tensor.NewRNG(1))
		m.CopyParamsFrom(proto) // identical initial replicas
		tw.models = append(tw.models, m)
		tw.rngs = append(tw.rngs, tensor.NewRNG(seed+uint64(w)*7+1))
	}
	// Fixed eval set.
	er := tensor.NewRNG(seed + 5)
	n := 80
	tw.evalX = tensor.New(n, dim)
	tw.evalY = make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		tw.evalY[i] = c
		for j := 0; j < dim; j++ {
			tw.evalX.Set(i, j, tw.centroids[c][j]+float32(er.Norm()))
		}
	}
	return tw
}

func (tw *testWorkload) sample(w int) (*tensor.Matrix, []int) {
	r := tw.rngs[w]
	x := tensor.New(tw.batch, tw.dim)
	y := make([]int, tw.batch)
	for i := 0; i < tw.batch; i++ {
		c := r.Intn(tw.classes)
		y[i] = c
		for j := 0; j < tw.dim; j++ {
			x.Set(i, j, tw.centroids[c][j]+float32(r.Norm()))
		}
	}
	return x, y
}

func (tw *testWorkload) Model(w int) *nn.Sequential { return tw.models[w] }

func (tw *testWorkload) ComputeGradients(w int) float64 {
	x, y := tw.sample(w)
	logits := tw.models[w].Forward(x)
	loss, d := nn.SoftmaxCrossEntropy(logits, y)
	tw.models[w].Backward(d)
	return loss
}

func (tw *testWorkload) Evaluate() float64 {
	var acc float64
	for _, m := range tw.models {
		acc += nn.Accuracy(m.Forward(tw.evalX), tw.evalY)
	}
	return acc / float64(len(tw.models))
}

func (tw *testWorkload) Increasing() bool { return true }

func testConfig(s Strategy, threshold int) Config {
	return Config{
		Strategy:        s,
		Workers:         3,
		Threshold:       threshold,
		Env:             trace.Outdoor,
		Seed:            11,
		ComputeSeconds:  2.0,
		PaperModelBytes: 2.1e6,
		LR:              0.1,
		Momentum:        0.9,
		MaxIterations:   30,
		CheckpointEvery: 5,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := Config{Workers: 1, MaxIterations: 5, Strategy: BSP}
	if err := bad.Validate(); err == nil {
		t.Fatal("1 worker accepted")
	}
	bad = Config{Workers: 3, Strategy: SSP, Threshold: 1, MaxIterations: 5}
	if err := bad.Validate(); err == nil {
		t.Fatal("threshold 1 accepted for SSP")
	}
	bad = Config{Workers: 3, Strategy: BSP}
	if err := bad.Validate(); err == nil {
		t.Fatal("no termination accepted")
	}
	good := testConfig(BSP, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.ComputeSeconds != 2.0 || good.CheckpointEvery != 5 {
		t.Fatal("validate clobbered explicit settings")
	}
}

func TestBSPRunCompletes(t *testing.T) {
	wl := newTestWorkload(3, 1)
	res, err := Run(testConfig(BSP, 0), wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("iterations=%d", res.Iterations)
	}
	if len(res.Series.Points) < 3 {
		t.Fatalf("too few checkpoints: %d", len(res.Series.Points))
	}
	if res.TotalJoules <= 0 {
		t.Fatal("no energy recorded")
	}
	c := res.Composition
	if c.Compute <= 0 || c.Comm <= 0 {
		t.Fatalf("composition %+v", c)
	}
	if math.Abs(c.Compute-2.0) > 1e-9 {
		t.Fatalf("compute share %v != configured 2.0", c.Compute)
	}
}

// TestBSPReplicasStayIdentical pins the core soundness property of the
// parameter-server discipline: with a full barrier, every replica applies
// exactly the same averaged updates and must remain bit-identical.
func TestBSPReplicasStayIdentical(t *testing.T) {
	wl := newTestWorkload(3, 2)
	if _, err := Run(testConfig(BSP, 0), wl); err != nil {
		t.Fatal(err)
	}
	p0 := wl.models[0].Params()
	for w := 1; w < 3; w++ {
		pw := wl.models[w].Params()
		for i := range p0 {
			if !p0[i].Equal(pw[i]) {
				t.Fatalf("worker %d param %d diverged from worker 0", w, i)
			}
		}
	}
}

func TestBSPTrainsTheModel(t *testing.T) {
	wl := newTestWorkload(3, 3)
	before := wl.Evaluate()
	cfg := testConfig(BSP, 0)
	cfg.MaxIterations = 60
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValue <= before+0.1 {
		t.Fatalf("no learning: %.3f -> %.3f", before, res.FinalValue)
	}
}

func TestSSPRunAndStalenessBound(t *testing.T) {
	wl := newTestWorkload(3, 4)
	cfg := testConfig(SSP, 3)
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("SSP barely progressed: %d", res.Iterations)
	}
	// White-box: rebuild a cluster and check the invariant during a run.
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl2 := newTestWorkload(3, 4)
	c := newCluster(cfg, wl2)
	c.launch()
	for c.k.Step() {
		if ahead := c.state.Versions.MaxAhead(); ahead > int64(cfg.Threshold) {
			t.Fatalf("staleness bound violated: %d > %d", ahead, cfg.Threshold)
		}
	}
}

func TestFLOWNRuns(t *testing.T) {
	wl := newTestWorkload(3, 5)
	res, err := Run(testConfig(FLOWN, 4), wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("FLOWN barely progressed: %d", res.Iterations)
	}
}

func TestROGRunsAndRespectsRSP(t *testing.T) {
	cfg := testConfig(ROG, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := newTestWorkload(3, 6)
	c := newCluster(cfg, wl)
	c.checkpoint()
	c.launch()
	steps := 0
	for c.k.Step() {
		steps++
		if ahead := c.state.Versions.MaxAhead(); ahead > int64(cfg.Threshold) {
			t.Fatalf("RSP bound violated after %d events: %d > %d", steps, ahead, cfg.Threshold)
		}
	}
	if c.iter[0] != int64(cfg.MaxIterations) {
		t.Fatalf("worker0 completed %d iterations", c.iter[0])
	}
	// Every unit of every worker must have been pushed within the last
	// threshold iterations of that worker (no starved rows).
	for w := 0; w < cfg.Workers; w++ {
		for u := 0; u < c.part.NumUnits(); u++ {
			lag := c.iter[w] - c.rep[w].PushIter[u]
			if lag >= int64(cfg.Threshold) {
				t.Fatalf("worker %d unit %d starved: lag %d", w, u, lag)
			}
		}
	}
}

func TestROGTrainsTheModel(t *testing.T) {
	wl := newTestWorkload(3, 7)
	before := wl.Evaluate()
	cfg := testConfig(ROG, 4)
	cfg.MaxIterations = 60
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValue <= before+0.1 {
		t.Fatalf("ROG did not learn: %.3f -> %.3f", before, res.FinalValue)
	}
}

func TestROGStallsLessThanBSP(t *testing.T) {
	run := func(s Strategy, th int) *Result {
		cfg := testConfig(s, th)
		cfg.MaxIterations = 40
		res, err := Run(cfg, newTestWorkload(4, 9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bsp := run(BSP, 0)
	rog := run(ROG, 4)
	if rog.Composition.Stall >= bsp.Composition.Stall {
		t.Fatalf("ROG stall %.3fs >= BSP stall %.3fs",
			rog.Composition.Stall, bsp.Composition.Stall)
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range []Strategy{BSP, SSP, ROG} {
		th := 4
		a, err := Run(testConfig(s, th), newTestWorkload(3, 13))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(testConfig(s, th), newTestWorkload(3, 13))
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalJoules != b.TotalJoules || a.Iterations != b.Iterations {
			t.Fatalf("%v not deterministic: %v/%v vs %v/%v",
				s, a.TotalJoules, a.Iterations, b.TotalJoules, b.Iterations)
		}
		if a.FinalValue != b.FinalValue {
			t.Fatalf("%v final value differs: %v vs %v", s, a.FinalValue, b.FinalValue)
		}
	}
}

func TestROGMicroSamples(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.RecordMicro = true
	res, err := Run(cfg, newTestWorkload(3, 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Micro) == 0 {
		t.Fatal("no micro samples recorded")
	}
	for _, m := range res.Micro {
		if m.TxRate < 0 || m.TxRate > 1 {
			t.Fatalf("TxRate %v out of [0,1]", m.TxRate)
		}
		if m.Staleness < 0 {
			t.Fatalf("negative staleness %d", m.Staleness)
		}
		if m.LinkMbps < 0 {
			t.Fatalf("negative bandwidth %v", m.LinkMbps)
		}
	}
}

func TestMaxVirtualSecondsTermination(t *testing.T) {
	cfg := testConfig(BSP, 0)
	cfg.MaxIterations = 0
	cfg.MaxVirtualSeconds = 120
	res, err := Run(cfg, newTestWorkload(3, 17))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations within the time budget")
	}
	last := res.Series.Last()
	// The final checkpoint can overshoot by at most one iteration's worth.
	if last.Time > 200 {
		t.Fatalf("ran far past the virtual deadline: %v", last.Time)
	}
}

func TestStrategyLabels(t *testing.T) {
	r := &Result{Strategy: SSP, Threshold: 20}
	if r.Label() != "SSP-20" {
		t.Fatalf("label=%s", r.Label())
	}
	r = &Result{Strategy: BSP}
	if r.Label() != "BSP" {
		t.Fatalf("label=%s", r.Label())
	}
	if FLOWN.String() != "FLOWN" || ROG.String() != "ROG" {
		t.Fatal("strategy names")
	}
}

func TestSendPlanDeliveredCount(t *testing.T) {
	cfg := testConfig(ROG, 4)
	wl := newTestWorkload(3, 19)
	c := newCluster(cfg, wl)
	plan := []int{0, 1, 2}
	ap := atp.NewPlan(plan, c.wireSize)
	if ap.DeliveredCount(0) != 0 {
		t.Fatal("zero bytes should deliver nothing")
	}
	if ap.DeliveredCount(ap.Prefix[3]) != 3 {
		t.Fatal("full bytes should deliver all")
	}
	mid := ap.Prefix[1] + 0.5*(ap.Prefix[2]-ap.Prefix[1])
	if ap.DeliveredCount(mid) != 1 {
		t.Fatal("partial unit must be discarded")
	}
}
