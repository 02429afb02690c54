// Package dataset synthesizes the two workloads the paper evaluates on:
//
//   - CRUDA (coordinated robotic unsupervised domain adaptation): a 100-class
//     classification task standing in for Fed-CIFAR100, with DeepTest-style
//     fog/brightness corruption and a Pachinko-inspired non-IID partition.
//   - CRIMP (coordinated robotic implicit mapping and positioning): a
//     synthetic 2-D scene observed along robot trajectories, learned as an
//     implicit map, with trajectory error measured by pose localization.
//
// The paper's datasets are real images; what its experiments actually
// measure is how synchronization strategies shape SGD trajectories, so a
// controlled synthetic task with the same structure (pretrained model,
// domain shift, unbalanced shards, online adaptation) preserves the
// evaluated behaviour at laptop scale.
package dataset

import (
	"fmt"

	"rog/internal/tensor"
)

// CRUDAConfig controls the synthetic classification task.
type CRUDAConfig struct {
	Classes     int     // number of classes (paper: 100)
	Superclass  int     // classes per superclass group (paper's CIFAR100: 5)
	Dim         int     // feature dimensionality
	TrainPer    int     // training samples per class
	TestPer     int     // test samples per class
	ClusterSep  float64 // distance scale between class centroids
	SampleNoise float64 // within-class noise std
	Seed        uint64
}

// DefaultCRUDAConfig mirrors the paper's dataset shape at reduced scale.
func DefaultCRUDAConfig() CRUDAConfig {
	return CRUDAConfig{
		Classes:     100,
		Superclass:  5,
		Dim:         32,
		TrainPer:    50,
		TestPer:     10,
		ClusterSep:  1.5,
		SampleNoise: 1.4,
		Seed:        1,
	}
}

// Sample is one labelled example.
type Sample struct {
	X []float32
	Y int
}

// CRUDA is the synthetic domain-adaptation dataset.
type CRUDA struct {
	Cfg   CRUDAConfig
	Train []Sample
	Test  []Sample
	// centroids[c] is the clean-domain mean of class c; kept so corruption
	// can be applied deterministically to fresh copies.
	centroids [][]float32
}

// NewCRUDA synthesizes the dataset. Class centroids are grouped into
// superclasses (CIFAR100-style coarse labels): centroids within a superclass
// share a group direction, which is what makes the Pachinko-style partition
// meaningfully non-IID.
func NewCRUDA(cfg CRUDAConfig) *CRUDA {
	if cfg.Classes <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("dataset: bad CRUDA config %+v", cfg))
	}
	r := tensor.NewRNG(cfg.Seed)
	d := &CRUDA{Cfg: cfg}

	groups := (cfg.Classes + cfg.Superclass - 1) / cfg.Superclass
	groupDir := make([][]float32, groups)
	for g := range groupDir {
		v := make([]float32, cfg.Dim)
		for i := range v {
			v[i] = float32(r.Norm() * cfg.ClusterSep)
		}
		groupDir[g] = v
	}
	d.centroids = make([][]float32, cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		v := make([]float32, cfg.Dim)
		base := groupDir[c/cfg.Superclass]
		for i := range v {
			v[i] = base[i] + float32(r.Norm()*cfg.ClusterSep*0.8)
		}
		d.centroids[c] = v
	}

	gen := func(per int, rr *tensor.RNG) []Sample {
		out := make([]Sample, 0, per*cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			for k := 0; k < per; k++ {
				x := make([]float32, cfg.Dim)
				for i := range x {
					x[i] = d.centroids[c][i] + float32(rr.Norm()*cfg.SampleNoise)
				}
				out = append(out, Sample{X: x, Y: c})
			}
		}
		return out
	}
	d.Train = gen(cfg.TrainPer, r.Split())
	d.Test = gen(cfg.TestPer, r.Split())
	return d
}

// Corruption is a DeepTest-style domain shift applied to samples: fog
// (contrast compression toward a haze vector), brightness (additive bias),
// per-channel gain jitter (the sensor-response warp that actually moves the
// decision boundaries) and extra sensor noise.
type Corruption struct {
	Fog        float64 // 0 = none, 1 = full haze
	Brightness float64 // additive shift in feature units
	Gain       float64 // std of per-channel multiplicative jitter
	Noise      float64 // extra sensor noise std
	Seed       uint64
}

// Apply returns corrupted copies of the samples. The originals are not
// modified. The haze vector and channel gains are fixed per Corruption value
// (the environment changed once), only Noise is drawn per sample.
func (c Corruption) Apply(in []Sample, dim int) []Sample {
	r := tensor.NewRNG(c.Seed + 0x5eed)
	haze := make([]float32, dim)
	gain := make([]float32, dim)
	for i := range haze {
		haze[i] = float32(r.Norm() * 0.5)
		gain[i] = float32(1 + r.Norm()*c.Gain)
	}
	out := make([]Sample, len(in))
	for i, s := range in {
		x := make([]float32, len(s.X))
		for j, v := range s.X {
			warped := float64(v) * float64(gain[j])
			fogged := warped*(1-c.Fog) + float64(haze[j])*c.Fog
			x[j] = float32(fogged + c.Brightness + r.Norm()*c.Noise)
		}
		out[i] = Sample{X: x, Y: s.Y}
	}
	return out
}

// Shard is one worker's slice of the dataset.
type Shard struct {
	Samples []Sample
	rng     *tensor.RNG
	x       *tensor.Matrix // Batch's scratch, reused across calls
	y       []int
}

// NewShard wraps samples with a private sampling stream.
func NewShard(samples []Sample, seed uint64) *Shard {
	return &Shard{Samples: samples, rng: tensor.NewRNG(seed)}
}

// Len returns the shard size.
func (s *Shard) Len() int { return len(s.Samples) }

// Batch draws a uniform random batch (with replacement) as a design matrix
// and label slice. Both are the shard's scratch, valid until its next Batch.
func (s *Shard) Batch(size int) (*tensor.Matrix, []int) {
	if len(s.Samples) == 0 {
		panic("dataset: Batch on empty shard")
	}
	dim := len(s.Samples[0].X)
	if s.x == nil || s.x.Rows != size {
		s.x, s.y = tensor.New(size, dim), make([]int, size)
	}
	x, y := s.x, s.y
	for i := 0; i < size; i++ {
		smp := s.Samples[s.rng.Intn(len(s.Samples))]
		copy(x.Row(i), smp.X)
		y[i] = smp.Y
	}
	return x, y
}

// PartitionPachinko splits samples into n shards with a Pachinko-allocation-
// inspired hierarchical draw: each shard first draws a distribution over
// superclasses, then over classes within them, producing the unbalanced
// non-IID shards the paper simulates with the Pachinko Allocation Method.
// Every sample is assigned to exactly one shard.
func PartitionPachinko(samples []Sample, n int, classes, superclass int, alpha float64, seed uint64) [][]Sample {
	if n <= 0 {
		panic("dataset: PartitionPachinko with n <= 0")
	}
	r := tensor.NewRNG(seed)
	groups := (classes + superclass - 1) / superclass

	// shardWeight[s][c] = unnormalized preference of shard s for class c.
	shardWeight := make([][]float64, n)
	for s := range shardWeight {
		gw := make([]float64, groups)
		for g := range gw {
			gw[g] = gamma(r, alpha)
		}
		cw := make([]float64, classes)
		for c := 0; c < classes; c++ {
			cw[c] = gw[c/superclass] * gamma(r, alpha)
		}
		shardWeight[s] = cw
	}

	out := make([][]Sample, n)
	for _, smp := range samples {
		// Sample shard proportional to its preference for this class.
		var total float64
		for s := 0; s < n; s++ {
			total += shardWeight[s][smp.Y]
		}
		u := r.Float64() * total
		pick := 0
		for s := 0; s < n; s++ {
			u -= shardWeight[s][smp.Y]
			if u <= 0 {
				pick = s
				break
			}
		}
		out[pick] = append(out[pick], smp)
	}
	// Guarantee no empty shard: steal one sample from the largest.
	for s := range out {
		if len(out[s]) == 0 {
			big := 0
			for i := range out {
				if len(out[i]) > len(out[big]) {
					big = i
				}
			}
			last := len(out[big]) - 1
			out[s] = append(out[s], out[big][last])
			out[big] = out[big][:last]
		}
	}
	return out
}

// gamma draws a Gamma(alpha, 1) variate (Marsaglia-Tsang for alpha>=1,
// boosted for alpha<1). Used for Dirichlet draws.
func gamma(r *tensor.RNG, alpha float64) float64 {
	if alpha < 1 {
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		return gamma(r, alpha+1) * pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / (3.0 * sqrt(d))
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if ln(u) < 0.5*x*x+d*(1-v+ln(v)) {
			return d * v
		}
	}
}
