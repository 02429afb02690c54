package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrom(2, 3, []float32{1, 2})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At=%v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a view")
	}
	if len(row) != 3 {
		t.Fatalf("row len=%d", len(row))
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFrom(2, 2, []float32{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
	if !m.Equal(NewFrom(2, 2, []float32{1, 2, 3, 4})) {
		t.Fatal("original mutated")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	b := NewFrom(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	if !a.Equal(NewFrom(2, 2, []float32{11, 22, 33, 44})) {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if !a.Equal(NewFrom(2, 2, []float32{1, 2, 3, 4})) {
		t.Fatalf("Sub: %v", a.Data)
	}
	a.Scale(2)
	if !a.Equal(NewFrom(2, 2, []float32{2, 4, 6, 8})) {
		t.Fatalf("Scale: %v", a.Data)
	}
	AXPY(a.Data, b.Data, 0.5)
	if !a.Equal(NewFrom(2, 2, []float32{7, 14, 21, 28})) {
		t.Fatalf("AXPY: %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	for name, f := range map[string]func(){
		"Add":      func() { a.Add(b) },
		"Sub":      func() { a.Sub(b) },
		"AXPY":     func() { AXPY(a.Data, b.Data[:3], 1) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMul(t *testing.T) {
	a := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewFrom(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("Mul=%v", got.Data)
	}
}

func TestMulTransA(t *testing.T) {
	a := NewFrom(3, 2, []float32{1, 4, 2, 5, 3, 6}) // aᵀ = [[1,2,3],[4,5,6]]
	b := NewFrom(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MulTransAInto(dst, a, b)
	want := Mul(a.Transpose(), b)
	if !dst.Equal(want) {
		t.Fatalf("MulTransA=%v want %v", dst.Data, want.Data)
	}
}

func TestMulTransB(t *testing.T) {
	a := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewFrom(2, 3, []float32{7, 9, 11, 8, 10, 12}) // bᵀ = 3x2
	dst := New(2, 2)
	MulTransBInto(dst, a, b)
	want := Mul(a, b.Transpose())
	if !dst.Equal(want) {
		t.Fatalf("MulTransB=%v want %v", dst.Data, want.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(1)
	m := New(5, 7)
	m.FillNormal(r, 1)
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("transpose twice != identity")
	}
}

func TestNormsAndMeans(t *testing.T) {
	m := NewFrom(1, 4, []float32{-1, 2, -3, 4})
	if m.SumAbs() != 10 {
		t.Fatalf("SumAbs=%v", m.SumAbs())
	}
	if m.MeanAbs() != 2.5 {
		t.Fatalf("MeanAbs=%v", m.MeanAbs())
	}
	if math.Abs(m.Norm2()-math.Sqrt(30)) > 1e-6 {
		t.Fatalf("Norm2=%v", m.Norm2())
	}
	empty := New(0, 0)
	if empty.MeanAbs() != 0 {
		t.Fatal("empty matrix stats should be 0")
	}
}

func TestApply(t *testing.T) {
	m := NewFrom(1, 3, []float32{1, -2, 3})
	m.Apply(func(v float32) float32 { return v * v })
	if !m.Equal(NewFrom(1, 3, []float32{1, 4, 9})) {
		t.Fatalf("Apply=%v", m.Data)
	}
}

func TestAlmostEqual(t *testing.T) {
	a := NewFrom(1, 2, []float32{1, 2})
	b := NewFrom(1, 2, []float32{1.0000001, 2})
	if !a.AlmostEqual(b, 1e-5) {
		t.Fatal("should be almost equal")
	}
	if a.AlmostEqual(NewFrom(1, 2, []float32{1.1, 2}), 1e-5) {
		t.Fatal("should differ")
	}
	if a.AlmostEqual(New(2, 1), 1) {
		t.Fatal("shape mismatch should not be equal")
	}
}

// Property: matrix multiplication distributes over addition:
// A*(B+C) == A*B + A*C (within float tolerance).
func TestMulDistributesOverAdd(t *testing.T) {
	r := NewRNG(42)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed) + r.Uint64()%1000)
		a, b, c := New(3, 4), New(4, 2), New(4, 2)
		a.FillNormal(rr, 1)
		b.FillNormal(rr, 1)
		c.FillNormal(rr, 1)
		bc := b.Clone()
		bc.Add(c)
		left := Mul(a, bc)
		right := Mul(a, b)
		right.Add(Mul(a, c))
		return left.AlmostEqual(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed)*2654435761 + 1)
		a, b := New(3, 5), New(5, 2)
		a.FillNormal(rr, 1)
		b.FillNormal(rr, 1)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		return left.AlmostEqual(right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(123)
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean=%v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("variance=%v", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children identical")
	}
}

func TestXavierInitRange(t *testing.T) {
	r := NewRNG(11)
	m := New(50, 60)
	m.XavierInit(r, 50, 60)
	limit := float32(math.Sqrt(6.0 / 110.0))
	for _, v := range m.Data {
		if v < -limit || v >= limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
	}
	if m.MeanAbs() == 0 {
		t.Fatal("init produced all zeros")
	}
}

// The three reference kernels are the loops MulInto, MulTransAInto and
// MulTransBInto were until the register-blocked versions replaced them,
// kept verbatim (shape checks dropped): they define, per output element,
// which products are added, in which k order, and which are skipped.

func refMulInto(dst, m, o *Matrix) {
	dst.Zero()
	// ikj loop order: streams over o rows, cache friendly for row-major.
	for i := 0; i < m.Rows; i++ {
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			ok := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, ov := range ok {
				di[j] += mv * ov
			}
		}
	}
}

func refMulTransAInto(dst, m, o *Matrix) {
	dst.Zero()
	for k := 0; k < m.Rows; k++ {
		mk := m.Data[k*m.Cols : (k+1)*m.Cols]
		ok := o.Data[k*o.Cols : (k+1)*o.Cols]
		for i, mv := range mk {
			if mv == 0 {
				continue
			}
			di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, ov := range ok {
				di[j] += mv * ov
			}
		}
	}
}

func refMulTransBInto(dst, m, o *Matrix) {
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < o.Rows; j++ {
			oj := o.Data[j*o.Cols : (j+1)*o.Cols]
			var s float32
			for k, mv := range mi {
				s += mv * oj[k]
			}
			di[j] = s
		}
	}
}

// sameBits is Equal on the bit patterns, so it tells -0 from +0. Two NaNs
// count as the same whatever their sign and payload: when two NaNs meet in
// an addition the hardware keeps one operand's, and which operand that is
// follows from the registers the compiler picked, not from the arithmetic.
func sameBits(a, b *Matrix) (int, bool) {
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return i, false
		}
	}
	return 0, a.Rows == b.Rows && a.Cols == b.Cols
}

// awkward fills m with normal draws of which about half are replaced by
// exact zeros and a few by -0; every 5th row, when special is set, also
// carries an Inf and a NaN.
func awkward(m *Matrix, r *RNG, special bool) {
	m.FillNormal(r, 1)
	negZero := float32(math.Copysign(0, -1))
	for i := range m.Data {
		switch r.Intn(8) {
		case 0, 1, 2, 3:
			m.Data[i] = 0
		case 4:
			m.Data[i] = negZero
		}
	}
	if !special || m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i += 5 {
		row := m.Row(i)
		row[r.Intn(len(row))] = float32(math.Inf(1 - 2*r.Intn(2)))
		row[r.Intn(len(row))] = float32(math.NaN())
	}
}

// refEpilogue is the affine map's tail as Linear and ReLU were written before
// it moved into the kernel: one rounded + b[j], then max(v, 0).
func refEpilogue(di, bias []float32, relu bool) {
	for j, b := range bias {
		di[j] += b
	}
	if relu {
		for j, v := range di {
			di[j] = max(v, 0)
		}
	}
}

func refAffineInto(relu bool) func(dst, m, o *Matrix, bias []float32) {
	return func(dst, m, o *Matrix, bias []float32) {
		refMulInto(dst, m, o)
		for i := 0; i < dst.Rows; i++ {
			refEpilogue(dst.Row(i), bias, relu)
		}
	}
}

func affine(relu bool) func(dst, m, o *Matrix, bias []float32) {
	return func(dst, m, o *Matrix, bias []float32) { AffineInto(dst, m, o, bias, relu) }
}

// product drops the bias argument of a product that takes none.
func product(f func(dst, m, o *Matrix)) func(dst, m, o *Matrix, bias []float32) {
	return func(dst, m, o *Matrix, _ []float32) { f(dst, m, o) }
}

// products are the kernels with their reference loops; the name up to any
// "(" is the one their panics carry.
var products = []struct {
	name      string
	blocked   func(dst, m, o *Matrix, bias []float32)
	reference func(dst, m, o *Matrix, bias []float32)
	// shapes of m and o for an (outer, inner, width) product; dst is outer×width
	shapes func(n, k, w int) (mr, mc, or, oc int)
}{
	{"MulInto", product(MulInto), product(refMulInto), func(n, k, w int) (int, int, int, int) { return n, k, k, w }},
	{"AffineInto(bias)", affine(false), refAffineInto(false), func(n, k, w int) (int, int, int, int) { return n, k, k, w }},
	{"AffineInto(bias,relu)", affine(true), refAffineInto(true), func(n, k, w int) (int, int, int, int) { return n, k, k, w }},
	{"MulTransAInto", product(MulTransAInto), product(refMulTransAInto), func(n, k, w int) (int, int, int, int) { return k, n, k, w }},
	{"MulTransBInto", product(MulTransBInto), product(refMulTransBInto), func(n, k, w int) (int, int, int, int) { return n, k, w, k }},
}

// awkwardBias returns w biases: normal draws, with ±0, ±Inf and NaN among
// them when w allows.
func awkwardBias(r *RNG, w int) []float32 {
	b := make([]float32, w)
	for j := range b {
		b[j] = float32(r.Norm())
	}
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	for j, v := range []float32{0, negZero, inf, -inf, float32(math.NaN())} {
		if w > 0 {
			b[(j*7+r.Intn(w))%w] = v
		}
	}
	return b
}

// TestBlockedKernelsBitIdentical holds the blocked kernels to the reference
// loops bit for bit, each case once with the vector body (where the CPU has
// one) and once with it switched off, over inner
// dimensions on both sides of the blocking width and of the k scratch
// (kChunk), output widths on both sides of every 32-column and 8-column
// boundary (widths 1–7 and 100 end in a masked block), and inputs and
// biases whose zeros, signed zeros, infinities and NaNs make the order of
// additions, the zero-skip and the rectifier's NaN rule visible (a sum from
// +0 is never -0; FuzzAddScaledRowsMatchesGo rectifies one kept from di).
func TestBlockedKernelsBitIdentical(t *testing.T) {
	dims := []int{1, 7, 8, 9, 24, 64, 100, 2000}
	if kChunk >= 2000 {
		t.Fatalf("kChunk %d: no case has K above the scratch size", kChunk)
	}
	vec := useAVX
	defer func() { useAVX = vec }()
	r := NewRNG(17)
	for _, kn := range products {
		for _, n := range dims {
			for _, k := range dims {
				for _, w := range []int{1, 7, 8, 9, 15, 16, 31, 32, 33, 64, 100} {
					if n*k*w > 2000*100*13 {
						continue // keep the sweep in seconds; K=2000 still meets every width
					}
					for _, special := range []bool{false, true} {
						mr, mc, or, oc := kn.shapes(n, k, w)
						m, o := New(mr, mc), New(or, oc)
						awkward(m, r, special)
						awkward(o, r, special)
						bias := awkwardBias(r, w)
						got, want := New(n, w), New(n, w)
						kn.reference(want, m, o, bias)
						for _, useAVX = range []bool{vec, false} {
							got.Fill(42) // a kernel must not depend on what dst held
							kn.blocked(got, m, o, bias)
							if at, ok := sameBits(got, want); !ok {
								t.Fatalf("%s avx=%v n=%d k=%d w=%d special=%v: element %d is %v (%#x), reference %v (%#x)",
									kn.name, useAVX, n, k, w, special, at, got.Data[at], math.Float32bits(got.Data[at]),
									want.Data[at], math.Float32bits(want.Data[at]))
							}
						}
					}
				}
			}
		}
	}
}

// drawAwkward returns a normal draw, or with probability mix/256 one of
// ±0, a subnormal, ±Inf or NaN.
func drawAwkward(r *RNG, mix int) float32 {
	if r.Intn(256) >= mix {
		return float32(r.Norm())
	}
	sign := uint32(r.Intn(2)) << 31
	switch r.Intn(4) {
	case 0:
		return math.Float32frombits(sign) // ±0
	case 1:
		return math.Float32frombits(sign | uint32(1+r.Intn(1<<23-1))) // subnormal
	case 2:
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	default:
		return float32(math.NaN())
	}
}

// FuzzAddScaledRowsMatchesGo holds addScaledRows — the vector body where the
// CPU has one — to addScaledRowsGo bit for bit, over random widths, row
// offsets and term counts 0–300, from +0 or from di, with and without a bias
// and the rectifier, with values drawn from normals, ±0, subnormals, ±Inf and
// NaN (NaN payloads exempt, as in sameBits).
func FuzzAddScaledRowsMatchesGo(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint16(64), uint8(0))
	f.Add(uint64(2), uint8(100), uint16(300), uint8(8))
	f.Add(uint64(3), uint8(7), uint16(0), uint8(255))
	f.Add(uint64(4), uint8(33), uint16(9), uint8(64))
	f.Add(uint64(5), uint8(64), uint16(256), uint8(2))
	f.Add(uint64(11), uint8(40), uint16(0), uint8(255)) // rectifies a -0 kept from di
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, terms uint16, mix uint8) {
		r := NewRNG(seed)
		w, nt := int(width)%129, int(terms)%301
		draw := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = drawAwkward(r, int(mix))
			}
			return v
		}
		data := draw(w + 1 + r.Intn(256))
		off, val := make([]int, nt), draw(nt)
		for i := range off {
			off[i] = r.Intn(len(data) - w + 1)
		}
		got, bias, acc, relu := draw(w), draw(w*r.Intn(2)), r.Intn(2) == 1, r.Intn(2) == 1
		want := append([]float32(nil), got...)
		addScaledRows(got, data, off, val, bias, acc, relu)
		addScaledRowsGo(want, data, off, val, bias, acc, relu)
		if at, ok := sameBits(NewFrom(1, w, got), NewFrom(1, w, want)); !ok {
			t.Fatalf("w=%d terms=%d acc=%v relu=%v bias=%v: column %d is %v (%#x), Go body %v (%#x)", w, nt, acc, relu, len(bias) > 0,
				at, got[at], math.Float32bits(got[at]), want[at], math.Float32bits(want[at]))
		}
	})
}

// FuzzRowPassMatchesReference holds one output row of the affine map — the
// compaction of a strided multiplier row, the vector body, the bias and the
// rectifier — to the reference: refMulInto's loop on that row, then
// refEpilogue. Widths 0–128, inner dimensions 0–300 (past kChunk, so the sums
// pass through the row), strides 1–8, a zero density of zeros/256 among the
// multipliers, values from drawAwkward.
func FuzzRowPassMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(100), uint16(64), uint8(0), uint8(128), uint8(0), true)
	f.Add(uint64(2), uint8(64), uint16(300), uint8(63), uint8(0), uint8(16), false)
	f.Add(uint64(3), uint8(5), uint16(0), uint8(2), uint8(255), uint8(255), true)
	f.Add(uint64(4), uint8(0), uint16(17), uint8(7), uint8(64), uint8(32), true)
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, inner uint16, stride, zeros, mix uint8, relu bool) {
		r := NewRNG(seed)
		w, k, st := int(width)%129, int(inner)%301, 1+int(stride)%8
		o := New(k, w)
		for i := range o.Data {
			o.Data[i] = drawAwkward(r, int(mix))
		}
		base := r.Intn(8)
		s := make([]float32, base+k*st)
		for i := range s {
			if s[i] = drawAwkward(r, int(mix)); r.Intn(256) < int(zeros) {
				s[i] = 0
			}
		}
		var bias []float32
		for range w * r.Intn(2) {
			bias = append(bias, drawAwkward(r, int(mix)))
		}
		got, want := New(1, w), New(1, w)
		got.Fill(42)
		var tm terms
		tm.addProducts(got.Data, s, base, st, o, bias, relu)
		for kk := range k {
			if mv := s[base+kk*st]; mv != 0 {
				for j, ov := range o.Row(kk) {
					want.Data[j] += mv * ov
				}
			}
		}
		refEpilogue(want.Data, bias, relu)
		if at, ok := sameBits(got, want); !ok {
			t.Fatalf("w=%d k=%d stride=%d relu=%v bias=%v: column %d is %v (%#x), reference %v (%#x)", w, k, st, relu,
				bias != nil, at, got.Data[at], math.Float32bits(got.Data[at]), want.Data[at], math.Float32bits(want.Data[at]))
		}
	})
}

// TestKernelsDoNotAllocate: the products' scratch — terms, and
// MulTransBInto's packed panel — lives on the stack, the affine form's too.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := NewRNG(3)
	for _, s := range []struct{ n, k, w int }{{24, 64, 64}, {2000, 64, 100}, {8, 2000, 16}} {
		for _, kn := range products {
			mr, mc, or, oc := kn.shapes(s.n, s.k, s.w)
			m, o, dst := New(mr, mc), New(or, oc), New(s.n, s.w)
			m.FillNormal(r, 1)
			o.FillNormal(r, 1)
			bias := make([]float32, s.w)
			if a := testing.AllocsPerRun(3, func() { kn.blocked(dst, m, o, bias) }); a != 0 {
				t.Errorf("%s %dx%dx%d allocates %v times a call", kn.name, s.n, s.k, s.w, a)
			}
		}
	}
}

// TestProductsPanicBeforeReading: a product whose o.Data is shorter than
// o.Rows×o.Cols panics, on both paths, with its own message before any
// arithmetic — the vector body would read one element past the slice without
// faulting — and a dst of the wrong shape, or a bias of the wrong length,
// still panics.
func TestProductsPanicBeforeReading(t *testing.T) {
	message := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	vec := useAVX
	defer func() { useAVX = vec }()
	for _, useAVX = range []bool{vec, false} {
		for _, kn := range products {
			mr, mc, or, oc := kn.shapes(2, 3, 32)
			m, o := New(mr, mc), New(or, oc)
			m.Fill(1)
			o.Fill(1)
			bias := make([]float32, 32)
			short := &Matrix{Rows: or, Cols: oc, Data: o.Data[:len(o.Data)-1]}
			cases := map[string]func(){
				"short o":     func() { kn.blocked(New(2, 32), m, short, bias) },
				"dst too big": func() { kn.blocked(New(3, 32), m, o, bias) },
			}
			op, _, _ := strings.Cut(kn.name, "(")
			if op == "AffineInto" {
				cases["short bias"] = func() { kn.blocked(New(2, 32), m, o, bias[:31]) }
			}
			for what, f := range cases {
				if msg := message(f); !strings.Contains(msg, op) {
					t.Errorf("%s avx=%v, %s: panic %q, want one naming the product", kn.name, useAVX, what, msg)
				}
			}
		}
	}
}

func BenchmarkKernels(b *testing.B) {
	r := NewRNG(1)
	for _, s := range []struct {
		name    string
		n, k, w int
		relu    bool // half of m's entries zero, as after a ReLU
	}{
		{"128", 128, 128, 128, false},
		{"dense24x64x64", 24, 64, 64, false},
		{"train24x64x64", 24, 64, 64, true},
		{"eval2000x64x100", 2000, 64, 100, true},
	} {
		for _, kn := range []struct {
			name string
			f    func(dst, m, o *Matrix)
			tb   bool
		}{
			{"Mul", MulInto, false}, {"refMul", refMulInto, false},
			{"TransA", MulTransAInto, false}, {"refTransA", refMulTransAInto, false},
			{"TransB", MulTransBInto, true}, {"refTransB", refMulTransBInto, true},
		} {
			m, o, dst := New(s.n, s.k), New(s.k, s.w), New(s.n, s.w)
			if kn.name == "TransA" || kn.name == "refTransA" {
				m = New(s.k, s.n)
			}
			if kn.tb {
				o = New(s.w, s.k)
			}
			m.FillNormal(r, 1)
			o.FillNormal(r, 1)
			if s.relu {
				for i, v := range m.Data {
					if v < 0 {
						m.Data[i] = 0
					}
				}
			}
			b.Run(fmt.Sprintf("%s/%s", s.name, kn.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kn.f(dst, m, o)
				}
			})
		}
	}
	// The three layers of one CRUDA Evaluate replica (32→64→64→100 on 2000
	// samples): the first takes the dense eval batch, the others rectified
	// activations.
	for _, s := range []struct {
		name         string
		n, k, w      int
		sparse, relu bool
	}{
		{"affine2000x32x64relu", 2000, 32, 64, false, true},
		{"affine2000x64x64relu", 2000, 64, 64, true, true},
		{"affine2000x64x100", 2000, 64, 100, true, false},
	} {
		m, o, dst := New(s.n, s.k), New(s.k, s.w), New(s.n, s.w)
		m.FillNormal(r, 1)
		o.FillNormal(r, 1)
		if s.sparse {
			for i, v := range m.Data {
				m.Data[i] = max(v, 0)
			}
		}
		bias := make([]float32, s.w)
		for j := range bias {
			bias[j] = float32(r.Norm())
		}
		for _, kn := range []struct {
			name string
			f    func(dst, m, o *Matrix, bias []float32)
		}{{"Affine", affine(s.relu)}, {"refAffine", refAffineInto(s.relu)}} {
			b.Run(s.name+"/"+kn.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kn.f(dst, m, o, bias)
				}
			})
		}
	}
}
