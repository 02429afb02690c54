package nn

import (
	"testing"

	"rog/internal/tensor"
)

func benchModel() (*Sequential, *tensor.Matrix, []int) {
	r := tensor.NewRNG(1)
	m := NewClassifierMLP(32, []int{64, 64}, 100, r)
	x := tensor.New(24, 32)
	x.FillNormal(r, 1)
	y := make([]int, 24)
	for i := range y {
		y[i] = i % 100
	}
	return m, x, y
}

func BenchmarkForward(b *testing.B) {
	m, x, _ := benchModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	m, x, y := benchModel()
	var d *tensor.Matrix
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		_, d = SoftmaxCrossEntropyInto(d, m.Forward(x), y)
		m.Backward(d)
	}
}

func BenchmarkSGDStep(b *testing.B) {
	m, x, y := benchModel()
	opt := NewSGD(0.01, 0.9)
	m.ZeroGrads()
	_, d := SoftmaxCrossEntropy(m.Forward(x), y)
	m.Backward(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m.Params(), m.Grads())
	}
}

func BenchmarkConvForward(b *testing.B) {
	r := tensor.NewRNG(2)
	m := NewConvMLP(1, 8, 8, []int{6}, []int{32}, 10, r)
	x := tensor.New(24, 64)
	x.FillNormal(r, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkGridMapForwardBackward(b *testing.B) {
	r := tensor.NewRNG(3)
	m := NewGridMap(24, 8, []int{16}, 1, r)
	x := tensor.New(32, 2)
	x.FillUniform(r, -1, 1)
	tgt := tensor.New(32, 1)
	tgt.FillUniform(r, -1, 1)
	var d *tensor.Matrix
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		_, d = MSEInto(d, m.Forward(x), tgt)
		m.Backward(d)
	}
}

// BenchmarkEvaluateReplica is one replica of the CRUDA checkpoint
// validation: the forward-only pass of the 32→64→64→100 classifier over 2000
// samples, then Accuracy.
func BenchmarkEvaluateReplica(b *testing.B) {
	r := tensor.NewRNG(4)
	m := NewClassifierMLP(32, []int{64, 64}, 100, r)
	x := tensor.New(2000, 32)
	x.FillNormal(r, 1)
	y := make([]int, x.Rows)
	for i := range y {
		y[i] = i % 100
	}
	var inf Inference
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Accuracy(inf.Forward(m, x), y)
	}
}
