package nn

import (
	"math"
	"testing"

	"rog/internal/tensor"
)

func TestGridInterpolatesCorners(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewFeatureGrid2D(4, 2, r)
	// Query exactly at the (-1,-1) corner: must return cell (0,0)'s
	// feature exactly.
	x := tensor.NewFrom(1, 2, []float32{-1, -1})
	out := l.Forward(x)
	want := l.Grid.Row(0)
	for j := 0; j < 2; j++ {
		if math.Abs(float64(out.At(0, j)-want[j])) > 1e-6 {
			t.Fatalf("corner feature %v want %v", out.Row(0), want)
		}
	}
	// (+1,+1) corner → last cell.
	out = l.Forward(tensor.NewFrom(1, 2, []float32{1, 1}))
	want = l.Grid.Row(15)
	for j := 0; j < 2; j++ {
		if math.Abs(float64(out.At(0, j)-want[j])) > 1e-6 {
			t.Fatalf("far corner %v want %v", out.Row(0), want)
		}
	}
}

func TestGridInterpolationIsConvex(t *testing.T) {
	// Any interior query is a convex combination of 4 cells: weights sum
	// to 1, so a constant grid returns the constant.
	r := tensor.NewRNG(2)
	l := NewFeatureGrid2D(8, 3, r)
	l.Grid.Fill(0.7)
	rr := tensor.NewRNG(5)
	for i := 0; i < 50; i++ {
		x := tensor.NewFrom(1, 2, []float32{
			float32(2*rr.Float64() - 1), float32(2*rr.Float64() - 1),
		})
		out := l.Forward(x)
		for _, v := range out.Row(0) {
			if math.Abs(float64(v)-0.7) > 1e-5 {
				t.Fatalf("constant grid interpolated to %v", v)
			}
		}
	}
}

func TestGridOutOfRangeClamped(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewFeatureGrid2D(4, 1, r)
	out := l.Forward(tensor.NewFrom(2, 2, []float32{-5, -5, 5, 5}))
	if math.IsNaN(float64(out.At(0, 0))) || math.IsNaN(float64(out.At(1, 0))) {
		t.Fatal("clamping failed")
	}
}

func TestGridGradientNumerical(t *testing.T) {
	r := tensor.NewRNG(4)
	model := NewGridMap(6, 4, []int{8}, 1, r)
	x := tensor.New(5, 2)
	x.FillUniform(r, -0.9, 0.9)
	target := tensor.New(5, 1)
	target.FillUniform(r, -0.5, 0.5)

	model.ZeroGrads()
	_, d := MSEInto(nil, model.Forward(x), target)
	model.Backward(d)

	params, grads := model.Params(), model.Grads()
	const eps = 1e-3
	for pi, p := range params {
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			lp, _ := MSEInto(nil, model.Forward(x), target)
			p.Data[idx] = orig - eps
			lm, _ := MSEInto(nil, model.Forward(x), target)
			p.Data[idx] = orig
			want := (lp - lm) / (2 * eps)
			got := float64(grads[pi].Data[idx])
			if math.Abs(want-got) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d idx %d: analytic %v numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestGridMapLearnsAField(t *testing.T) {
	r := tensor.NewRNG(6)
	model := NewGridMap(12, 6, []int{16}, 1, r)
	opt := NewSGD(0.1, 0.9)
	field := func(x, y float64) float64 { return math.Tanh(2 * x * y) }

	rr := tensor.NewRNG(9)
	var last float64
	for i := 0; i < 400; i++ {
		x := tensor.New(32, 2)
		y := tensor.New(32, 1)
		for b := 0; b < 32; b++ {
			px, py := 2*rr.Float64()-1, 2*rr.Float64()-1
			x.Set(b, 0, float32(px))
			x.Set(b, 1, float32(py))
			y.Set(b, 0, float32(field(px, py)))
		}
		model.ZeroGrads()
		loss, g := MSEInto(nil, model.Forward(x), y)
		last = loss
		model.Backward(g)
		opt.Step(model.Params(), model.Grads())
	}
	if last > 0.02 {
		t.Fatalf("grid map failed to fit field: loss %v", last)
	}
}

func TestGridRowsDominateParams(t *testing.T) {
	// The design intent: most rows belong to the grid (spatial units).
	r := tensor.NewRNG(7)
	model := NewGridMap(16, 8, []int{16}, 1, r)
	gridRows := 16 * 16
	if model.NumRows() < gridRows {
		t.Fatalf("rows %d < grid cells %d", model.NumRows(), gridRows)
	}
	frac := float64(gridRows) / float64(model.NumRows())
	if frac < 0.8 {
		t.Fatalf("grid rows only %.2f of all rows", frac)
	}
}

func TestGridWrongInputPanics(t *testing.T) {
	r := tensor.NewRNG(8)
	l := NewFeatureGrid2D(4, 2, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(tensor.New(1, 3))
}
