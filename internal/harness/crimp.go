package harness

import (
	"rog/internal/core"
	"rog/internal/dataset"
	"rog/internal/nn"
	"rog/internal/tensor"
)

// CRIMPOptions configures the coordinated robotic implicit mapping and
// positioning workload (paper Sec. VI: NICE-SLAM on ScanNet; here a
// coordinate MLP on a synthetic scene).
type CRIMPOptions struct {
	Workers    int
	BatchSize  int
	Seed       uint64
	ObsPerBot  int // trajectory length per robot
	TestObs    int // held-out observations for trajectory error
	Hidden     []int
	EncLevels  int
	RaysPerObs int
	// UseGridMap swaps the Fourier-feature MLP for the NICE-SLAM-faithful
	// representation: a learned feature grid whose rows are map cells,
	// decoded by a small MLP. Used by the ext-gridmap experiment.
	UseGridMap bool
	GridSize   int
}

// DefaultCRIMPOptions mirrors the paper's CRIMP setup at reduced scale.
func DefaultCRIMPOptions() CRIMPOptions {
	return CRIMPOptions{
		Workers:    4,
		BatchSize:  32,
		Seed:       2,
		ObsPerBot:  120,
		TestObs:    8,
		Hidden:     []int{64, 64},
		EncLevels:  6,
		RaysPerObs: 24,
	}
}

// CRIMPWorkload implements core.Workload: each robot contributes camera
// observations along its own trajectory; the team jointly trains an
// implicit map and is scored by trajectory (localization) error — lower is
// better.
type CRIMPWorkload struct {
	models  []*nn.Sequential
	obs     [][]dataset.Observation
	rngs    []*tensor.RNG
	xs, ys  []*tensor.Matrix // the batch per worker, refilled every step
	grads   []*tensor.Matrix // the loss gradient per worker, reused
	testObs []dataset.Observation
	locCfg  dataset.LocalizeConfig
	seed    uint64
}

var _ core.Workload = (*CRIMPWorkload)(nil)

// NewCRIMP builds the workload: one shared scene, one trajectory per
// robot (all anchored at the shared origin, the paper's shared starting
// image), identical randomly initialized map replicas.
func NewCRIMP(opts CRIMPOptions) *CRIMPWorkload {
	scene := dataset.NewScene(8, 4, opts.Seed)
	w := &CRIMPWorkload{
		locCfg: dataset.DefaultLocalizeConfig(),
		seed:   opts.Seed,
	}
	newModel := func(r *tensor.RNG) *nn.Sequential {
		if opts.UseGridMap {
			g := opts.GridSize
			if g <= 0 {
				g = 24
			}
			return nn.NewGridMap(g, 8, []int{16}, 1, r)
		}
		return nn.NewImplicitMapMLP(opts.EncLevels, opts.Hidden, 1, r)
	}
	proto := newModel(tensor.NewRNG(opts.Seed + 5))
	for i := 0; i < opts.Workers; i++ {
		cfg := dataset.CRIMPConfig{
			Scene:       scene,
			RaysPerObs:  opts.RaysPerObs,
			SensorNoise: 0.02,
			Seed:        opts.Seed + uint64(i)*101 + 7,
		}
		w.obs = append(w.obs, dataset.Trajectory(cfg, opts.ObsPerBot))
		m := newModel(tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		w.models = append(w.models, m)
		w.rngs = append(w.rngs, tensor.NewRNG(opts.Seed+uint64(i)*13+3))
		w.xs = append(w.xs, tensor.New(opts.BatchSize, 2))
		w.ys = append(w.ys, tensor.New(opts.BatchSize, 1))
	}
	w.grads = make([]*tensor.Matrix, opts.Workers)
	testCfg := dataset.CRIMPConfig{
		Scene:       scene,
		RaysPerObs:  opts.RaysPerObs,
		SensorNoise: 0,
		Seed:        opts.Seed + 999,
	}
	w.testObs = dataset.Trajectory(testCfg, opts.TestObs)
	return w
}

// Model returns worker w's map replica.
func (c *CRIMPWorkload) Model(w int) *nn.Sequential { return c.models[w] }

// ComputeGradients regresses the implicit map on a batch of worker w's
// observations.
func (c *CRIMPWorkload) ComputeGradients(w int) float64 {
	dataset.MapBatch(c.xs[w], c.ys[w], c.obs[w], c.rngs[w])
	var loss float64
	loss, c.grads[w] = nn.MSEInto(c.grads[w], c.models[w].Forward(c.xs[w]), c.ys[w])
	c.models[w].Backward(c.grads[w])
	return loss
}

// fieldAdapter lets a Sequential act as a dataset.MapField.
type fieldAdapter struct{ m *nn.Sequential }

func (f fieldAdapter) Eval(pts *tensor.Matrix) *tensor.Matrix { return f.m.Forward(pts) }

// Evaluate returns the mean trajectory error of worker 0's map on held-out
// poses — the paper's positioning metric (lower is better). Worker 0 is
// representative: RSP keeps replicas within the staleness bound.
func (c *CRIMPWorkload) Evaluate() float64 {
	return dataset.TrajectoryError(fieldAdapter{c.models[0]}, c.testObs, c.locCfg, c.seed+4242)
}

// Increasing reports that trajectory error shrinks as training improves.
func (c *CRIMPWorkload) Increasing() bool { return false }
