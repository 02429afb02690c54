package nn

import (
	"math"
	"testing"
	"testing/quick"

	"rog/internal/tensor"
)

func TestLinearForwardKnown(t *testing.T) {
	l := NewLinear(2, 2, tensor.NewRNG(1))
	l.W.CopyFrom(tensor.NewFrom(2, 2, []float32{1, 2, 3, 4}))
	l.B.CopyFrom(tensor.NewFrom(1, 2, []float32{0.5, -0.5}))
	x := tensor.NewFrom(1, 2, []float32{1, 1})
	out := l.Forward(x)
	want := tensor.NewFrom(1, 2, []float32{4.5, 5.5})
	if !out.AlmostEqual(want, 1e-6) {
		t.Fatalf("forward=%v", out.Data)
	}
}

// numericalGrad estimates dLoss/dTheta for one parameter element by central
// differences, where loss is recomputed via full forward passes.
func numericalGrad(model *Sequential, x *tensor.Matrix, labels []int, p *tensor.Matrix, idx int) float64 {
	const eps = 1e-3
	orig := p.Data[idx]
	p.Data[idx] = orig + eps
	lossPlus, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
	p.Data[idx] = orig - eps
	lossMinus, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
	p.Data[idx] = orig
	return (lossPlus - lossMinus) / (2 * eps)
}

func TestBackpropMatchesNumericalGradient(t *testing.T) {
	r := tensor.NewRNG(7)
	model := NewClassifierMLP(5, []int{8}, 3, r)
	x := tensor.New(4, 5)
	x.FillNormal(r, 1)
	labels := []int{0, 2, 1, 2}

	model.ZeroGrads()
	logits := model.Forward(x)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	model.Backward(dlogits)

	params, grads := model.Params(), model.Grads()
	for pi, p := range params {
		// Check a few elements of each parameter.
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			want := numericalGrad(model, x, labels, p, idx)
			got := float64(grads[pi].Data[idx])
			if math.Abs(want-got) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestMSEGradientNumerical(t *testing.T) {
	r := tensor.NewRNG(9)
	model := NewImplicitMapMLP(3, []int{10}, 1, r)
	x := tensor.New(6, 2)
	x.FillUniform(r, -1, 1)
	target := tensor.New(6, 1)
	target.FillUniform(r, -0.5, 0.5)

	model.ZeroGrads()
	pred := model.Forward(x)
	_, dpred := MSEInto(nil, pred, target)
	model.Backward(dpred)

	params, grads := model.Params(), model.Grads()
	p := params[0]
	const eps = 1e-3
	for _, idx := range []int{0, len(p.Data) - 1} {
		orig := p.Data[idx]
		p.Data[idx] = orig + eps
		lp, _ := MSEInto(nil, model.Forward(x), target)
		p.Data[idx] = orig - eps
		lm, _ := MSEInto(nil, model.Forward(x), target)
		p.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(grads[0].Data[idx])
		if math.Abs(want-got) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("elem %d: analytic %v vs numeric %v", idx, got, want)
		}
	}
}

func TestReLU(t *testing.T) {
	l := NewReLU()
	x := tensor.NewFrom(1, 4, []float32{-1, 0, 2, -3})
	out := l.Forward(x)
	if !out.Equal(tensor.NewFrom(1, 4, []float32{0, 0, 2, 0})) {
		t.Fatalf("relu=%v", out.Data)
	}
	dx := l.Backward(tensor.NewFrom(1, 4, []float32{1, 1, 1, 1}))
	if !dx.Equal(tensor.NewFrom(1, 4, []float32{0, 0, 1, 0})) {
		t.Fatalf("relu grad=%v", dx.Data)
	}
}

func TestTanhRangeAndGrad(t *testing.T) {
	l := NewTanh()
	x := tensor.NewFrom(1, 3, []float32{-10, 0, 10})
	out := l.Forward(x)
	if out.Data[0] > -0.99 || out.Data[1] != 0 || out.Data[2] < 0.99 {
		t.Fatalf("tanh=%v", out.Data)
	}
	dx := l.Backward(tensor.NewFrom(1, 3, []float32{1, 1, 1}))
	if dx.Data[1] != 1 { // derivative at 0 is 1
		t.Fatalf("tanh grad at 0 = %v", dx.Data[1])
	}
	if dx.Data[0] > 1e-3 || dx.Data[2] > 1e-3 {
		t.Fatalf("tanh grad saturation: %v", dx.Data)
	}
}

func TestFourierEncodeDims(t *testing.T) {
	enc := NewFourierEncode(2, 4)
	if enc.OutDim() != 2*(1+8) {
		t.Fatalf("OutDim=%d", enc.OutDim())
	}
	x := tensor.NewFrom(1, 2, []float32{0.5, -0.25})
	out := enc.Forward(x)
	if out.Cols != enc.OutDim() {
		t.Fatalf("cols=%d", out.Cols)
	}
	// First feature of each coordinate is the raw value.
	if out.Data[0] != 0.5 || out.Data[9] != -0.25 {
		t.Fatalf("raw passthrough: %v", out.Data)
	}
	// sin(π·0.5)=1 at octave 0.
	if math.Abs(float64(out.Data[1])-1) > 1e-6 {
		t.Fatalf("sin feature=%v", out.Data[1])
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes → loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss=%v", loss)
	}
	// Gradient rows sum to ~0 (softmax sums to 1, minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row sum=%v", s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.NewFrom(1, 3, []float32{1000, 1000, 1000})
	loss, _ := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss=%v", loss)
	}
}

func TestAccuracyAndArgmax(t *testing.T) {
	logits := tensor.NewFrom(3, 3, []float32{
		1, 5, 2,
		9, 0, 0,
		0, 0, 3,
	})
	for i, want := range []int{1, 0, 2} {
		if got := argmaxRow(logits.Row(i)); got != want {
			t.Fatalf("argmax of row %d = %d, want %d", i, got, want)
		}
	}
	acc := Accuracy(logits, []int{1, 0, 0})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy=%v", acc)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// refArgmaxRow is argmaxRow as it was written before it kept the maximum in a
// register, kept verbatim as the reference.
func refArgmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// TestArgmaxMatchesReference holds argmaxRow to the reference over lengths
// 0–130 filled with ties, ±0, ±Inf and NaN at index 0 and elsewhere.
func TestArgmaxMatchesReference(t *testing.T) {
	r := tensor.NewRNG(8)
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	pool := []float32{0, negZero, 1, 1, -1, inf, -inf, nan, 2, 2}
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 20; trial++ {
			row := make([]float32, n)
			for j := range row {
				row[j] = pool[r.Intn(len(pool))]
				if trial%4 == 0 {
					row[j] = float32(r.Intn(3)) // many ties
				}
			}
			if n > 0 && trial%5 == 1 {
				row[0] = nan
			}
			if got, want := argmaxRow(row), refArgmaxRow(row); got != want {
				t.Fatalf("len %d %v: argmaxRow %d, reference %d", n, row, got, want)
			}
		}
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	r := tensor.NewRNG(3)
	model := NewClassifierMLP(4, []int{16}, 3, r)
	opt := NewSGD(0.1, 0.9)
	x := tensor.New(16, 4)
	x.FillNormal(r, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 3
	}
	first, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
	var last float64
	for i := 0; i < 60; i++ {
		model.ZeroGrads()
		logits := model.Forward(x)
		loss, d := SoftmaxCrossEntropy(logits, labels)
		last = loss
		model.Backward(d)
		opt.Step(model.Params(), model.Grads())
	}
	if last >= first/2 {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestApplyRowEquivalentToStep(t *testing.T) {
	// A full Step must equal applying every row individually with ApplyRow
	// when momentum state starts equal.
	r := tensor.NewRNG(5)
	m1 := NewClassifierMLP(3, []int{4}, 2, r)
	m2 := NewSequential()
	*m2 = *NewClassifierMLP(3, []int{4}, 2, tensor.NewRNG(5))
	m2.CopyParamsFrom(m1)

	x := tensor.New(5, 3)
	x.FillNormal(r, 1)
	labels := []int{0, 1, 0, 1, 1}

	run := func(m *Sequential) []*tensor.Matrix {
		m.ZeroGrads()
		_, d := SoftmaxCrossEntropy(m.Forward(x), labels)
		m.Backward(d)
		return m.Grads()
	}

	g1 := run(m1)
	g2 := run(m2)

	o1 := NewSGD(0.05, 0.9)
	o2 := NewSGD(0.05, 0.9)
	o1.Step(m1.Params(), g1)
	for pi, g := range g2 {
		for row := 0; row < g.Rows; row++ {
			o2.ApplyRow(m2.Params(), pi, row, g.Row(row))
		}
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if !p1[i].AlmostEqual(p2[i], 1e-6) {
			t.Fatalf("param %d diverged", i)
		}
	}
}

func TestNumRowsAndParams(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewClassifierMLP(10, []int{20}, 5, r)
	// linear(10x20): W 10 rows + B 1 row; linear(20x5): 20 + 1.
	if m.NumRows() != 10+1+20+1 {
		t.Fatalf("NumRows=%d", m.NumRows())
	}
	if m.NumParams() != 10*20+20+20*5+5 {
		t.Fatalf("NumParams=%d", m.NumParams())
	}
}

// Property: forward pass is deterministic given fixed parameters.
func TestForwardDeterministic(t *testing.T) {
	r := tensor.NewRNG(99)
	model := NewClassifierMLP(4, []int{6}, 3, r)
	f := func(a, b, c, d float32) bool {
		clamp := func(v float32) float32 {
			if v != v || v > 1e6 || v < -1e6 { // NaN/huge guard
				return 0
			}
			return v
		}
		x := tensor.NewFrom(1, 4, []float32{clamp(a), clamp(b), clamp(c), clamp(d)})
		o1 := model.Forward(x).Clone()
		o2 := model.Forward(x)
		return o1.Equal(o2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SGD with lr=0 never changes parameters.
func TestSGDZeroLRIsNoop(t *testing.T) {
	r := tensor.NewRNG(13)
	model := NewClassifierMLP(3, []int{4}, 2, r)
	before := make([]*tensor.Matrix, 0)
	for _, p := range model.Params() {
		before = append(before, p.Clone())
	}
	x := tensor.New(2, 3)
	x.FillNormal(r, 1)
	_, d := SoftmaxCrossEntropy(model.Forward(x), []int{0, 1})
	model.Backward(d)
	NewSGD(0, 0.9).Step(model.Params(), model.Grads())
	for i, p := range model.Params() {
		if !p.Equal(before[i]) {
			t.Fatal("lr=0 changed parameters")
		}
	}
}
