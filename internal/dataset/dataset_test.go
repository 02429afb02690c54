package dataset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rog/internal/nn"
	"rog/internal/tensor"
)

func smallCRUDA() *CRUDA {
	cfg := DefaultCRUDAConfig()
	cfg.Classes = 10
	cfg.Superclass = 5
	cfg.TrainPer = 20
	cfg.TestPer = 5
	return NewCRUDA(cfg)
}

func TestCRUDASizesAndLabels(t *testing.T) {
	d := smallCRUDA()
	if len(d.Train) != 200 || len(d.Test) != 50 {
		t.Fatalf("sizes %d/%d", len(d.Train), len(d.Test))
	}
	counts := make(map[int]int)
	for _, s := range d.Train {
		if s.Y < 0 || s.Y >= 10 {
			t.Fatalf("label %d out of range", s.Y)
		}
		if len(s.X) != d.Cfg.Dim {
			t.Fatalf("dim %d", len(s.X))
		}
		counts[s.Y]++
	}
	for c := 0; c < 10; c++ {
		if counts[c] != 20 {
			t.Fatalf("class %d has %d samples", c, counts[c])
		}
	}
}

func TestCRUDADeterministic(t *testing.T) {
	a, b := smallCRUDA(), smallCRUDA()
	for i := range a.Train {
		if a.Train[i].Y != b.Train[i].Y || a.Train[i].X[0] != b.Train[i].X[0] {
			t.Fatal("same seed produced different datasets")
		}
	}
}

func TestCRUDAIsLearnable(t *testing.T) {
	// A linear probe should beat chance comfortably on the clean domain.
	d := smallCRUDA()
	r := tensor.NewRNG(2)
	model := nn.NewClassifierMLP(d.Cfg.Dim, []int{32}, 10, r)
	opt := nn.NewSGD(0.05, 0.9)
	shard := NewShard(d.Train, 3)
	for i := 0; i < 300; i++ {
		x, y := shard.Batch(32)
		model.ZeroGrads()
		_, g := nn.SoftmaxCrossEntropy(model.Forward(x), y)
		model.Backward(g)
		opt.Step(model.Params(), model.Grads())
	}
	x, y := batchAll(d.Test)
	acc := nn.Accuracy(model.Forward(x), y)
	if acc < 0.5 {
		t.Fatalf("test accuracy %.3f too low — dataset not learnable", acc)
	}
}

func batchAll(samples []Sample) (*tensor.Matrix, []int) {
	x := tensor.New(len(samples), len(samples[0].X))
	y := make([]int, len(samples))
	for i, s := range samples {
		copy(x.Row(i), s.X)
		y[i] = s.Y
	}
	return x, y
}

func TestCorruptionDegradesAccuracyAndPreservesOriginals(t *testing.T) {
	d := smallCRUDA()
	r := tensor.NewRNG(2)
	model := nn.NewClassifierMLP(d.Cfg.Dim, []int{32}, 10, r)
	opt := nn.NewSGD(0.05, 0.9)
	shard := NewShard(d.Train, 3)
	for i := 0; i < 300; i++ {
		x, y := shard.Batch(32)
		model.ZeroGrads()
		_, g := nn.SoftmaxCrossEntropy(model.Forward(x), y)
		model.Backward(g)
		opt.Step(model.Params(), model.Grads())
	}
	orig := d.Test[0].X[0]
	corr := Corruption{Fog: 0.4, Brightness: 0.4, Gain: 0.5, Noise: 0.4, Seed: 7}
	noisy := corr.Apply(d.Test, d.Cfg.Dim)
	if d.Test[0].X[0] != orig {
		t.Fatal("corruption mutated the source samples")
	}
	xc, yc := batchAll(noisy)
	x, y := batchAll(d.Test)
	clean := nn.Accuracy(model.Forward(x), y)
	foggy := nn.Accuracy(model.Forward(xc), yc)
	if foggy >= clean-0.05 {
		t.Fatalf("corruption did not degrade accuracy: clean %.3f foggy %.3f", clean, foggy)
	}
}

func TestPartitionPachinkoCoversAll(t *testing.T) {
	d := smallCRUDA()
	shards := PartitionPachinko(d.Train, 4, 10, 5, 0.3, 11)
	total := 0
	for _, s := range shards {
		if len(s) == 0 {
			t.Fatal("empty shard")
		}
		total += len(s)
	}
	if total != len(d.Train) {
		t.Fatalf("partition lost samples: %d vs %d", total, len(d.Train))
	}
}

func TestPartitionPachinkoIsNonIID(t *testing.T) {
	d := smallCRUDA()
	shards := PartitionPachinko(d.Train, 4, 10, 5, 0.2, 11)
	// Measure max class share per shard; with a low alpha it should be
	// clearly above the IID share (which is 1/10 per class).
	var maxShare float64
	for _, s := range shards {
		counts := make(map[int]int)
		for _, smp := range s {
			counts[smp.Y]++
		}
		for _, c := range counts {
			share := float64(c) / float64(len(s))
			if share > maxShare {
				maxShare = share
			}
		}
	}
	if maxShare < 0.2 {
		t.Fatalf("partition looks IID: max class share %.3f", maxShare)
	}
}

func TestShardBatchShape(t *testing.T) {
	d := smallCRUDA()
	sh := NewShard(d.Train, 1)
	x, y := sh.Batch(7)
	if x.Rows != 7 || x.Cols != d.Cfg.Dim || len(y) != 7 {
		t.Fatalf("batch %dx%d labels %d", x.Rows, x.Cols, len(y))
	}
	if n := testing.AllocsPerRun(20, func() { sh.Batch(7) }); n != 0 {
		t.Fatalf("a warm Batch allocates %v times", n)
	}
}

func TestGammaPositiveAndMean(t *testing.T) {
	r := tensor.NewRNG(4)
	f := func(a8 uint8) bool {
		alpha := 0.1 + float64(a8%40)/10
		v := gamma(r, alpha)
		return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Mean of Gamma(2,1) is 2.
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		sum += gamma(r, 2)
	}
	if m := sum / float64(n); math.Abs(m-2) > 0.15 {
		t.Fatalf("Gamma(2) mean=%v", m)
	}
}

func TestSceneValuesBounded(t *testing.T) {
	s := NewScene(6, 3, 9)
	r := tensor.NewRNG(1)
	for i := 0; i < 500; i++ {
		x, y := 2*r.Float64()-1, 2*r.Float64()-1
		v := s.At(x, y)
		if v < -1 || v > 1 || math.IsNaN(v) {
			t.Fatalf("scene value %v at (%v,%v)", v, x, y)
		}
	}
}

func TestSceneHasStructure(t *testing.T) {
	s := NewScene(6, 3, 9)
	// The field must not be constant: sample variance should be material.
	var vals []float64
	for x := -0.9; x <= 0.9; x += 0.15 {
		for y := -0.9; y <= 0.9; y += 0.15 {
			vals = append(vals, s.At(x, y))
		}
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	varv := 0.0
	for _, v := range vals {
		varv += (v - mean) * (v - mean)
	}
	varv /= float64(len(vals))
	if varv < 0.01 {
		t.Fatalf("scene variance %v too low", varv)
	}
}

func TestTrajectoryShapeAndBounds(t *testing.T) {
	scene := NewScene(5, 2, 3)
	cfg := CRIMPConfig{Scene: scene, RaysPerObs: 16, SensorNoise: 0.01, Seed: 5}
	obs := Trajectory(cfg, 20)
	if len(obs) != 20 {
		t.Fatalf("obs count %d", len(obs))
	}
	if obs[0].Pose != [2]float64{0, 0} {
		t.Fatalf("trajectory must start at shared origin, got %v", obs[0].Pose)
	}
	for _, o := range obs {
		if o.Points.Rows != 16 || o.Points.Cols != 2 || o.Values.Rows != 16 {
			t.Fatal("bad observation shape")
		}
		if math.Abs(o.Pose[0]) > 1 || math.Abs(o.Pose[1]) > 1 {
			t.Fatalf("pose out of bounds %v", o.Pose)
		}
	}
}

func TestMapBatch(t *testing.T) {
	scene := NewScene(5, 2, 3)
	cfg := CRIMPConfig{Scene: scene, RaysPerObs: 8, SensorNoise: 0, Seed: 5}
	obs := Trajectory(cfg, 5)
	x, y := tensor.New(12, 2), tensor.New(12, 1)
	x.Fill(9) // no observed coordinate or value is 9
	y.Fill(9)
	MapBatch(x, y, obs, tensor.NewRNG(1))
	for i := 0; i < x.Rows; i++ {
		found := false
		for _, o := range obs {
			for k := 0; k < o.Points.Rows; k++ {
				if slices.Equal(x.Row(i), o.Points.Row(k)) && y.At(i, 0) == o.Values.At(k, 0) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("pair %d (%v → %v) is no observed point", i, x.Row(i), y.At(i, 0))
		}
	}
}

// perfectField evaluates the ground-truth scene directly — localization
// against it must nearly eliminate the initial pose error.
type perfectField struct{ s *Scene }

func (f perfectField) Eval(pts *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(pts.Rows, 1)
	for i := 0; i < pts.Rows; i++ {
		out.Set(i, 0, float32(f.s.At(float64(pts.At(i, 0)), float64(pts.At(i, 1)))))
	}
	return out
}

// constantField knows nothing — localization against it must leave roughly
// the initial error.
type constantField struct{}

func (constantField) Eval(pts *tensor.Matrix) *tensor.Matrix {
	return tensor.New(pts.Rows, 1)
}

func TestTrajectoryErrorSeparatesGoodAndBadMaps(t *testing.T) {
	scene := NewScene(8, 4, 21)
	cfg := CRIMPConfig{Scene: scene, RaysPerObs: 24, SensorNoise: 0, Seed: 6}
	obs := Trajectory(cfg, 12)
	lcfg := DefaultLocalizeConfig()
	good := TrajectoryError(perfectField{scene}, obs, lcfg, 7)
	bad := TrajectoryError(constantField{}, obs, lcfg, 7)
	if good >= bad {
		t.Fatalf("perfect map error %.3f >= blank map error %.3f", good, bad)
	}
	if good > lcfg.InitError*0.8 {
		t.Fatalf("perfect map barely localized: %.3f (init %.3f)", good, lcfg.InitError)
	}
	if bad < lcfg.InitError*0.5 {
		t.Fatalf("blank map localized suspiciously well: %.3f", bad)
	}
}

func TestTrajectoryErrorEmpty(t *testing.T) {
	if TrajectoryError(constantField{}, nil, DefaultLocalizeConfig(), 1) != 0 {
		t.Fatal("empty observation list should give 0")
	}
}
