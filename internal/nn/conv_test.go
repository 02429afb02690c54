package nn

import (
	"math"
	"testing"

	"rog/internal/tensor"
)

func TestConvGeometry(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewConv2D(3, 8, 8, 4, 3, 1, r)
	if l.OutH() != 8 || l.OutW() != 8 || l.OutDim() != 4*64 {
		t.Fatalf("geometry: %d %d %d", l.OutH(), l.OutW(), l.OutDim())
	}
	noPad := NewConv2D(1, 5, 5, 2, 3, 0, r)
	if noPad.OutH() != 3 || noPad.OutW() != 3 {
		t.Fatalf("no-pad geometry: %d %d", noPad.OutH(), noPad.OutW())
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1×1 kernel with weight 1 must reproduce the input.
	r := tensor.NewRNG(2)
	l := NewConv2D(1, 4, 4, 1, 1, 0, r)
	l.Kern.Fill(1)
	l.B.Zero()
	x := tensor.New(2, 16)
	x.FillNormal(r, 1)
	out := l.Forward(x)
	if !out.AlmostEqual(x, 1e-6) {
		t.Fatal("1x1 identity kernel changed the input")
	}
}

func TestConvKnownValue(t *testing.T) {
	// 3×3 all-ones kernel, no padding, on a 3×3 all-ones image = 9.
	r := tensor.NewRNG(3)
	l := NewConv2D(1, 3, 3, 1, 3, 0, r)
	l.Kern.Fill(1)
	l.B.Data[0] = 0.5
	x := tensor.New(1, 9)
	x.Fill(1)
	out := l.Forward(x)
	if out.Cols != 1 || math.Abs(float64(out.Data[0])-9.5) > 1e-6 {
		t.Fatalf("conv sum=%v want 9.5", out.Data)
	}
}

func TestConvGradientNumerical(t *testing.T) {
	r := tensor.NewRNG(4)
	model := NewSequential(
		NewConv2D(2, 4, 4, 3, 3, 1, r),
		NewReLU(),
		NewLinear(3*16, 2, r),
	)
	x := tensor.New(3, 2*16)
	x.FillNormal(r, 1)
	labels := []int{0, 1, 0}

	model.ZeroGrads()
	_, d := SoftmaxCrossEntropy(model.Forward(x), labels)
	model.Backward(d)

	params, grads := model.Params(), model.Grads()
	const eps = 1e-3
	for pi, p := range params {
		for _, idx := range []int{0, len(p.Data) / 3, len(p.Data) - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			lp, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
			p.Data[idx] = orig - eps
			lm, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
			p.Data[idx] = orig
			want := (lp - lm) / (2 * eps)
			got := float64(grads[pi].Data[idx])
			if math.Abs(want-got) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d idx %d: analytic %v numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestConvInputGradientNumerical(t *testing.T) {
	r := tensor.NewRNG(5)
	l := NewConv2D(1, 4, 4, 2, 3, 1, r)
	x := tensor.New(1, 16)
	x.FillNormal(r, 1)
	target := tensor.New(1, l.OutDim())
	target.FillNormal(r, 1)

	loss := func() float64 {
		v, _ := MSEInto(nil, l.Forward(x), target)
		return v
	}
	l.GK.Zero()
	l.GB.Zero()
	_, d := MSEInto(nil, l.Forward(x), target)
	dx := l.Backward(d)

	const eps = 1e-3
	for _, idx := range []int{0, 7, 15} {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		lp := loss()
		x.Data[idx] = orig - eps
		lm := loss()
		x.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(dx.Data[idx])
		if math.Abs(want-got) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("dx[%d]: analytic %v numeric %v", idx, got, want)
		}
	}
}

func TestAvgPool(t *testing.T) {
	l := NewAvgPool2D(1, 4, 4, 2)
	x := tensor.New(1, 16)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	out := l.Forward(x)
	// Window (rows 0-1, cols 0-1): (0+1+4+5)/4 = 2.5.
	if out.Cols != 4 || math.Abs(float64(out.Data[0])-2.5) > 1e-6 {
		t.Fatalf("pool=%v", out.Data)
	}
	// Backward spreads gradient evenly.
	d := tensor.New(1, 4)
	d.Fill(1)
	dx := l.Backward(d)
	for _, v := range dx.Data {
		if math.Abs(float64(v)-0.25) > 1e-6 {
			t.Fatalf("pool grad=%v", dx.Data)
		}
	}
}

func TestAvgPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on indivisible pool")
		}
	}()
	NewAvgPool2D(1, 5, 5, 2)
}

func TestConvMLPTrains(t *testing.T) {
	r := tensor.NewRNG(6)
	model := NewConvMLP(1, 6, 6, []int{4}, []int{16}, 3, r)
	opt := NewSGD(0.05, 0.9)

	// Three classes of simple patterns: vertical bar, horizontal bar, blob.
	sample := func(rr *tensor.RNG) (*tensor.Matrix, []int) {
		x := tensor.New(12, 36)
		y := make([]int, 12)
		for i := 0; i < 12; i++ {
			c := rr.Intn(3)
			y[i] = c
			img := x.Row(i)
			switch c {
			case 0:
				col := 1 + rr.Intn(4)
				for row := 0; row < 6; row++ {
					img[row*6+col] = 1
				}
			case 1:
				row := 1 + rr.Intn(4)
				for col := 0; col < 6; col++ {
					img[row*6+col] = 1
				}
			default:
				cy, cx := 1+rr.Intn(3), 1+rr.Intn(3)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						img[(cy+dy)*6+cx+dx] = 1
					}
				}
			}
			for j := range img {
				img[j] += float32(rr.Norm() * 0.1)
			}
		}
		return x, y
	}

	rr := tensor.NewRNG(77)
	for i := 0; i < 120; i++ {
		x, y := sample(rr)
		model.ZeroGrads()
		_, g := SoftmaxCrossEntropy(model.Forward(x), y)
		model.Backward(g)
		opt.Step(model.Params(), model.Grads())
	}
	x, y := sample(tensor.NewRNG(99))
	if acc := Accuracy(model.Forward(x), y); acc < 0.7 {
		t.Fatalf("ConvMLP accuracy %.3f on trivial patterns", acc)
	}
}

func TestConvInputWidthPanics(t *testing.T) {
	r := tensor.NewRNG(7)
	l := NewConv2D(1, 4, 4, 1, 3, 1, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(tensor.New(1, 10))
}
