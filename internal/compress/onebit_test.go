package compress

import (
	"math"
	"testing"
	"testing/quick"

	"rog/internal/tensor"
)

func TestEncodeDecodeSigns(t *testing.T) {
	c := NewCodec([]int{4})
	g := []float32{1, -2, 3, -4}
	p := c.Encode(0, g)
	out := make([]float32, 4)
	Decode(p, out)
	for i, v := range out {
		if (v >= 0) != (g[i] >= 0) {
			t.Fatalf("sign flipped at %d: in %v out %v", i, g[i], v)
		}
	}
	if p.PosScale != 2 || p.NegScale != 3 {
		t.Fatalf("scales %v/%v want 2/3", p.PosScale, p.NegScale)
	}
}

func TestErrorFeedbackLossless(t *testing.T) {
	// Over many iterations, sum(decoded) must track sum(inputs): the
	// residual stays bounded, so no gradient mass is lost. This is the
	// "lossless with error compensation" property the paper relies on.
	c := NewCodec([]int{8})
	r := tensor.NewRNG(3)
	sumIn := make([]float64, 8)
	sumOut := make([]float64, 8)
	out := make([]float32, 8)
	for iter := 0; iter < 500; iter++ {
		g := make([]float32, 8)
		for i := range g {
			g[i] = float32(r.Norm())
			sumIn[i] += float64(g[i])
		}
		Decode(c.Encode(0, g), out)
		for i, v := range out {
			sumOut[i] += float64(v)
		}
	}
	for i := range sumIn {
		// Difference is exactly the current residual, which must be small
		// relative to the accumulated mass.
		diff := math.Abs(sumIn[i] - sumOut[i])
		if diff > 10 {
			t.Fatalf("elem %d: |sumIn-sumOut|=%v (residual unbounded)", i, diff)
		}
	}
}

func TestResidualEqualsDrift(t *testing.T) {
	c := NewCodec([]int{4})
	g := []float32{0.5, -0.25, 0.1, 0}
	p := c.Encode(0, g)
	out := make([]float32, 4)
	Decode(p, out)
	var drift float64
	for i := range g {
		d := float64(g[i]) - float64(out[i])
		drift += d * d
	}
	if math.Abs(c.ResidualNorm(0)-math.Sqrt(drift)) > 1e-5 {
		t.Fatalf("residual %v != drift %v", c.ResidualNorm(0), math.Sqrt(drift))
	}
	c.Reset(0)
	if c.ResidualNorm(0) != 0 {
		t.Fatal("Reset did not clear residual")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	f := func(row uint8, vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{1}
		}
		for i, v := range vals {
			if v != v { // NaN breaks sign comparison semantics, skip
				vals[i] = 0
			}
		}
		lens := []int{len(vals)}
		c := NewCodec(lens)
		p := c.Encode(0, vals)
		p.Row = int(row)
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if q.Row != p.Row || q.N != p.N || q.PosScale != p.PosScale || q.NegScale != p.NegScale {
			return false
		}
		for i := range p.Bits {
			if p.Bits[i] != q.Bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	c := NewCodec([]int{9})
	p := c.Encode(0, make([]float32, 9))
	raw := p.Marshal()
	if _, err := Unmarshal(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestWireSizeAndRatio(t *testing.T) {
	c := NewCodec([]int{100})
	p := c.Encode(0, make([]float32, 100))
	if p.WireSize() != 4+13 {
		t.Fatalf("WireSize=%d", p.WireSize())
	}
	if RowWireSize(100) != p.WireSize() {
		t.Fatal("RowWireSize disagrees with actual payload")
	}
	// For wide rows the ratio approaches 1/32 ≈ 3.1%, matching the paper's
	// ≈3.2% compressed size.
	if r := Ratio(1024); r > 0.05 || r < 0.03 {
		t.Fatalf("Ratio(1024)=%v", r)
	}
	if Ratio(0) != 1 {
		t.Fatal("Ratio(0) should be 1")
	}
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCodec([]int{4}).Encode(0, make([]float32, 5))
}

func TestDecodeLengthMismatchPanics(t *testing.T) {
	c := NewCodec([]int{4})
	p := c.Encode(0, make([]float32, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decode(p, make([]float32, 3))
}

func TestAllNegativeRow(t *testing.T) {
	c := NewCodec([]int{3})
	p := c.Encode(0, []float32{-1, -2, -3})
	if p.PosScale != 0 {
		t.Fatalf("PosScale=%v for all-negative row", p.PosScale)
	}
	out := make([]float32, 3)
	Decode(p, out)
	for _, v := range out {
		if v != -2 {
			t.Fatalf("decode=%v want -2", v)
		}
	}
}

// TestEncodeAllocatesOnlyTheBits: the compensated row is codec-owned
// scratch, so the payload's bit slice is Encode's one allocation.
func TestEncodeAllocatesOnlyTheBits(t *testing.T) {
	c := NewCodec([]int{64, 8})
	g := make([]float32, 64)
	for i := range g {
		g[i] = float32(i%7) - 3
	}
	var p Payload
	if allocs := testing.AllocsPerRun(100, func() { p = c.Encode(0, g) }); allocs > 1 {
		t.Fatalf("Encode allocates %.1f times, want at most 1", allocs)
	}
	if p.N != 64 || len(p.Bits) != 8 {
		t.Fatalf("payload N=%d with %d bit bytes", p.N, len(p.Bits))
	}
}
