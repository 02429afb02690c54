// Package harness assembles the paper's experiments: the CRUDA and CRIMP
// workloads as core.Workload implementations, per-figure experiment
// runners, and text renderers for every table and figure of the evaluation
// section.
package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"rog/internal/core"
	"rog/internal/dataset"
	"rog/internal/nn"
	"rog/internal/tensor"
)

// CRUDAOptions configures the coordinated robotic unsupervised domain
// adaptation workload (paper Sec. VI: Fed-CIFAR100 + ConvMLP, noised per
// DeepTest; here the synthetic equivalents from internal/dataset).
type CRUDAOptions struct {
	Workers       int
	BatchSize     int // per-worker batch (paper default 24 on robots)
	BatchScale    int // multiplies BatchSize (sensitivity study)
	Seed          uint64
	PretrainIters int
	Hidden        []int
	// UseConvMLP trains the paper's actual model family — a convolutional
	// stem with an MLP head — on the synthetic image dataset instead of
	// the feature-vector MLP. Slower per iteration (real convolutions)
	// but architecture-faithful; used by the ext-convmlp experiment.
	UseConvMLP bool
}

// DefaultCRUDAOptions mirrors the paper's default setup at reduced scale.
func DefaultCRUDAOptions() CRUDAOptions {
	return CRUDAOptions{
		Workers:       4,
		BatchSize:     24,
		BatchScale:    1,
		Seed:          1,
		PretrainIters: 500,
		Hidden:        []int{64, 64},
	}
}

// CRUDAWorkload implements core.Workload: a model pretrained on the clean
// domain must adapt online to fog/brightness-corrupted data spread across
// non-IID worker shards.
type CRUDAWorkload struct {
	*crudaBuild // shared with every workload of equal options
	models      []*nn.Sequential
	shards      []*dataset.Shard
	batch       int
	grads       []*tensor.Matrix // the loss gradient per worker, reused
	accs        []float64        // Evaluate's accuracy per replica
}

var _ core.Workload = (*CRUDAWorkload)(nil)

// crudaBuild is what of a CRUDA workload follows from the options alone and
// is never written once built, so one build serves every system of an
// experiment: Shard.Batch copies the samples it draws (and
// Corruption.Apply copied them before), Evaluate only reads the eval batch,
// and proto is only ever the source of CopyParamsFrom. The one exception is
// the scorers' activation buffers, which every workload of the build
// shares under scoreMu rather than each holding a set of its own.
type crudaBuild struct {
	newModel func(r *tensor.RNG) *nn.Sequential
	proto    *nn.Sequential     // pretrained on the clean domain
	parts    [][]dataset.Sample // corrupted training data per worker
	evalX    *tensor.Matrix     // corrupted test set
	evalY    []int
	scoreMu  sync.Mutex
	infer    []nn.Inference // guarded by scoreMu; Evaluate's scorers, one per worker
	// PretrainCleanAcc and PretrainNoisyAcc record the accuracy story the
	// paper tells: high on the clean domain, degraded by the shift.
	PretrainCleanAcc float64
	PretrainNoisyAcc float64
}

var crudaBuilds memo

// NewCRUDA builds the workload: synthesizes the dataset, pretrains one
// model on the clean domain, corrupts the world, shards the corrupted data
// Pachinko-style, and clones the pretrained model to every worker. Calls
// with equal options share all of that but the clones and the shards'
// sampling streams, which are fresh: the workloads are independent and
// start identical.
func NewCRUDA(opts CRUDAOptions) *CRUDAWorkload {
	key := opts
	key.BatchSize, key.BatchScale = 0, 0 // the batch is drawn per step, not built
	w := &CRUDAWorkload{
		crudaBuild: crudaBuilds.get(fmt.Sprintf("%+v", key), func() *crudaBuild { return buildCRUDA(opts) }),
		batch:      opts.BatchSize * opts.BatchScale,
		grads:      make([]*tensor.Matrix, opts.Workers),
		accs:       make([]float64, opts.Workers),
	}
	for i := 0; i < opts.Workers; i++ {
		m := w.newModel(tensor.NewRNG(1))
		m.CopyParamsFrom(w.proto)
		w.models = append(w.models, m)
		w.shards = append(w.shards, dataset.NewShard(w.parts[i], opts.Seed+uint64(i)*31+21))
	}
	return w
}

func buildCRUDA(opts CRUDAOptions) *crudaBuild {
	var (
		train, test []dataset.Sample
		dim         int
		classes     int
		superclass  int
		newModel    func(r *tensor.RNG) *nn.Sequential
		corr        dataset.Corruption
	)
	if opts.UseConvMLP {
		icfg := dataset.DefaultImageConfig()
		icfg.Seed = opts.Seed
		img := dataset.NewImageSet(icfg)
		train, test = img.Train, img.Test
		dim, classes, superclass = img.Dim(), icfg.Classes, 5
		newModel = func(r *tensor.RNG) *nn.Sequential {
			return nn.NewConvMLP(1, icfg.H, icfg.W, []int{6}, []int{32}, classes, r)
		}
		corr = dataset.Corruption{Fog: 0.5, Brightness: 0.4, Gain: 0.7, Noise: 0.5, Seed: opts.Seed + 9}
	} else {
		cfg := dataset.DefaultCRUDAConfig()
		cfg.Seed = opts.Seed
		cfg.TestPer = 20 // 2000-sample eval set keeps checkpoint noise low
		data := dataset.NewCRUDA(cfg)
		train, test = data.Train, data.Test
		dim, classes, superclass = cfg.Dim, cfg.Classes, cfg.Superclass
		hidden := slices.Clone(opts.Hidden) // the caller may reuse its slice
		newModel = func(r *tensor.RNG) *nn.Sequential {
			return nn.NewClassifierMLP(dim, hidden, classes, r)
		}
		corr = dataset.Corruption{Fog: 0.65, Brightness: 0.6, Gain: 1.0, Noise: 0.7, Seed: opts.Seed + 9}
	}

	proto := newModel(tensor.NewRNG(opts.Seed + 77))
	opt := nn.NewSGD(0.05, 0.9)
	pre := dataset.NewShard(train, opts.Seed+3)
	var g *tensor.Matrix
	for i := 0; i < opts.PretrainIters; i++ {
		x, y := pre.Batch(64)
		proto.ZeroGrads()
		_, g = nn.SoftmaxCrossEntropyInto(g, proto.Forward(x), y)
		proto.Backward(g)
		opt.Step(proto.Params(), proto.Grads())
	}

	noisyTrain := corr.Apply(train, dim)
	noisyTest := corr.Apply(test, dim)

	b := &crudaBuild{newModel: newModel, proto: proto, infer: make([]nn.Inference, opts.Workers)}
	b.evalX, b.evalY = samplesToBatch(noisyTest)
	cleanX, cleanY := samplesToBatch(test)
	var inf nn.Inference
	b.PretrainCleanAcc = nn.Accuracy(inf.Forward(proto, cleanX), cleanY)
	b.PretrainNoisyAcc = nn.Accuracy(inf.Forward(proto, b.evalX), b.evalY)
	b.parts = dataset.PartitionPachinko(noisyTrain, opts.Workers, classes, superclass, 0.3, opts.Seed+13)
	return b
}

func samplesToBatch(samples []dataset.Sample) (*tensor.Matrix, []int) {
	x := tensor.New(len(samples), len(samples[0].X))
	y := make([]int, len(samples))
	for i, s := range samples {
		copy(x.Row(i), s.X)
		y[i] = s.Y
	}
	return x, y
}

// Model returns worker w's replica.
func (c *CRUDAWorkload) Model(w int) *nn.Sequential { return c.models[w] }

// ComputeGradients runs one adaptation step on worker w's shard. Everything
// it touches is worker w's, so different workers may step concurrently.
func (c *CRUDAWorkload) ComputeGradients(w int) float64 {
	x, y := c.shards[w].Batch(c.batch)
	var loss float64
	loss, c.grads[w] = nn.SoftmaxCrossEntropyInto(c.grads[w], c.models[w].Forward(x), y)
	c.models[w].Backward(c.grads[w])
	return loss
}

// Evaluate returns the mean corrupted-domain test accuracy across workers
// (the paper checkpoints and validates on every worker, then averages).
// The replicas are scored on up to GOMAXPROCS goroutines, through the
// build's scorer buffers; their accuracies are summed in replica order once
// all are in, so the value does not depend on how many scorers ran or when.
func (c *CRUDAWorkload) Evaluate() float64 {
	c.scoreMu.Lock()
	defer c.scoreMu.Unlock()
	n := min(runtime.GOMAXPROCS(0), len(c.models))
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) { // scorer g: every n-th replica, through its own buffers
			defer wg.Done()
			for i := g; i < len(c.models); i += n {
				c.accs[i] = nn.Accuracy(c.infer[g].Forward(c.models[i], c.evalX), c.evalY)
			}
		}(g)
	}
	wg.Wait()
	var acc float64
	for _, a := range c.accs {
		acc += a
	}
	return acc / float64(len(c.models))
}

// Increasing reports that accuracy grows as training improves.
func (c *CRUDAWorkload) Increasing() bool { return true }
