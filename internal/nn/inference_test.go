package nn

import (
	"math"
	"testing"

	"rog/internal/tensor"
)

// TestInferenceMatchesForward holds the forward-only pass to the training
// pass bit for bit on every model family, across batch sizes that make its
// buffers grow and shrink, and with one Inference serving several models.
func TestInferenceMatchesForward(t *testing.T) {
	r := tensor.NewRNG(5)
	models := map[string]struct {
		m  *Sequential
		in int
	}{
		"mlp":      {NewClassifierMLP(32, []int{64, 64}, 100, r), 32},
		"convmlp":  {NewConvMLP(1, 8, 8, []int{6}, []int{32}, 10, r), 64},
		"implicit": {NewImplicitMapMLP(6, []int{64, 64}, 1, r), 2},
		"gridmap":  {NewGridMap(24, 8, []int{16}, 1, r), 2},
	}
	// A -0 bias on a unit whose weights are all zero, and a NaN weight row,
	// whose NaNs the fused rectifier must pass on as ReLU.Forward does.
	odd := NewClassifierMLP(8, []int{16, 16}, 4, r)
	first, second := odd.Layers[0].(*Linear), odd.Layers[2].(*Linear)
	for k := 0; k < first.W.Rows; k++ {
		first.W.Set(k, 3, 0)
	}
	first.B.Data[3] = float32(math.Copysign(0, -1))
	second.B.Data[5] = float32(math.Copysign(0, -1))
	for j := range first.W.Row(2) {
		first.W.Row(2)[j] = float32(math.NaN())
	}
	models["odd"] = struct {
		m  *Sequential
		in int
	}{odd, 8}
	var inf Inference
	for _, batch := range []int{24, 1, 200, 7} {
		for name, c := range models {
			x := tensor.New(batch, c.in)
			x.FillUniform(r, -1, 1)
			keep := x.Clone()
			// A tanh last layer returns its own scratch, which the
			// training pass below rewrites: keep a copy.
			got := inf.Forward(c.m, x).Clone()
			if want := c.m.Forward(x); !sameBits(got, want) {
				t.Fatalf("%s batch %d: forward-only output differs from Forward", name, batch)
			}
			if !x.Equal(keep) {
				t.Fatalf("%s batch %d: input rewritten", name, batch)
			}
		}
	}
}

// sameBits is Equal on the bit patterns, so it tells -0 from +0, except that
// any two NaNs match (Equal calls no two NaNs equal).
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return false
		}
	}
	return true
}

// TestInferenceCopiesBeforeRectifying: a model that opens with a ReLU must
// rectify a copy, never the caller's batch.
func TestInferenceCopiesBeforeRectifying(t *testing.T) {
	m := NewSequential(NewReLU(), NewLinear(3, 2, tensor.NewRNG(1)))
	x := tensor.NewFrom(2, 3, []float32{-1, 2, -3, 4, -5, 6})
	keep := x.Clone()
	var inf Inference
	got := inf.Forward(m, x)
	if !x.Equal(keep) {
		t.Fatalf("input rewritten: %v", x.Data)
	}
	if want := m.Forward(x); !got.Equal(want) {
		t.Fatalf("forward-only %v, training pass %v", got.Data, want.Data)
	}
}

// TestSteadyStateAllocations pins what the reused scratch buys: once warm,
// the forward-only pass and a training step of every model family allocate
// nothing — each layer's outputs and the loss gradient are scratch their
// owner reuses.
func TestSteadyStateAllocations(t *testing.T) {
	m, x, y := benchModel()
	var inf Inference
	if n := testing.AllocsPerRun(20, func() { inf.Forward(m, x) }); n != 0 {
		t.Errorf("Inference.Forward allocates %v times a call", n)
	}
	var d *tensor.Matrix
	step := func() {
		m.ZeroGrads()
		_, d = SoftmaxCrossEntropyInto(d, m.Forward(x), y)
		m.Backward(d)
	}
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("forward+backward allocates %v times a step (was 34)", n)
	}

	r := tensor.NewRNG(6)
	conv := NewConvMLP(1, 8, 8, []int{6}, []int{32}, 10, r)
	img := tensor.New(24, 64)
	img.FillNormal(r, 1)
	classes := make([]int, img.Rows)
	for i := range classes {
		classes[i] = i % 10
	}
	convStep := func() {
		conv.ZeroGrads()
		_, d = SoftmaxCrossEntropyInto(d, conv.Forward(img), classes)
		conv.Backward(d)
	}
	pts := tensor.New(32, 2)
	pts.FillUniform(r, -1, 1)
	target := tensor.New(32, 1)
	target.FillUniform(r, -1, 1)
	for name, mm := range map[string]*Sequential{
		"gridmap":  NewGridMap(24, 8, []int{16}, 1, r),
		"implicit": NewImplicitMapMLP(6, []int{64, 64}, 1, r),
	} {
		var g *tensor.Matrix
		mapStep := func() {
			mm.ZeroGrads()
			_, g = MSEInto(g, mm.Forward(pts), target)
			mm.Backward(g)
		}
		if n := testing.AllocsPerRun(20, mapStep); n != 0 {
			t.Errorf("%s forward+backward allocates %v times a step", name, n)
		}
	}
	if n := testing.AllocsPerRun(20, convStep); n != 0 {
		t.Errorf("convmlp forward+backward allocates %v times a step", n)
	}
}
