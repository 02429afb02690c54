package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// refEncode is the branchy Encode EncodeInto replaced, verbatim but for the
// receiver and add, which pins the payload of a NaN sum to the first NaN
// (without it the compiler decides, and -fuzz builds decide differently):
// the reference TestCodecMatchesReference holds both bodies to.
func refEncode(c *Codec, rowID int, g []float32) Payload {
	res := c.residual[rowID]
	if len(g) != len(res) {
		panic(fmt.Sprintf("compress: row %d length %d != %d", rowID, len(g), len(res)))
	}
	n := len(g)
	// Separate positive/negative means minimize L2 error of the
	// reconstruction (the original 1-bit SGD formulation).
	var posSum, negSum float64
	var posCnt, negCnt int
	comp := c.comp[:n]
	for i, v := range g {
		x := add(float64(v), float64(res[i]))
		comp[i] = x
		if x >= 0 {
			posSum = add(posSum, x)
			posCnt++
		} else {
			negSum = add(negSum, -x)
			negCnt++
		}
	}
	var posScale, negScale float64
	if posCnt > 0 {
		posScale = posSum / float64(posCnt)
	}
	if negCnt > 0 {
		negScale = negSum / float64(negCnt)
	}
	p := Payload{
		Row:      rowID,
		N:        n,
		PosScale: float32(posScale),
		NegScale: float32(negScale),
		Bits:     make([]byte, (n+7)/8),
	}
	for i, x := range comp {
		var decoded float64
		if x >= 0 {
			p.Bits[i/8] |= 1 << uint(i%8)
			decoded = posScale
		} else {
			decoded = -negScale
		}
		res[i] = float32(x - decoded)
	}
	return p
}

// refDecode is the branchy Decode, verbatim.
func refDecode(p Payload, out []float32) {
	if len(out) != p.N {
		panic(fmt.Sprintf("compress: decode into %d, want %d", len(out), p.N))
	}
	for i := 0; i < p.N; i++ {
		if p.Bits[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = p.PosScale
		} else {
			out[i] = -p.NegScale
		}
	}
}

// refLens and refKinds span the row shapes and the inputs a sign test can
// get wrong: partial and whole bytes, −0 (positive) and NaN (negative).
var (
	refLens  = []int{0, 1, 7, 8, 9, 63, 64, 65, 257, 1000}
	refKinds = []string{"normal", "positive", "negative", "zeros", "subnormal", "inf", "nan"}
)

// refRow draws one input row of the given kind.
func refRow(kind string, n int, r *tensor.RNG) []float32 {
	g := make([]float32, n)
	for i := range g {
		v := float32(r.Norm())
		switch kind {
		case "positive":
			v = float32(math.Abs(float64(v)))
		case "negative":
			v = -float32(math.Abs(float64(v)))
		case "zeros":
			v = float32(math.Copysign(0, float64(v)))
		case "subnormal":
			v = float32(math.Copysign(float64(math.SmallestNonzeroFloat32)*float64(1+r.Intn(1<<20)), float64(v)))
		case "inf":
			if r.Intn(5) == 0 {
				v = float32(math.Inf(1 - 2*r.Intn(2)))
			}
		case "nan":
			if r.Intn(5) == 0 {
				v = float32(math.NaN())
			}
		}
		g[i] = v
	}
	return g
}

// matchReference encodes g with both codecs and fails unless the payloads,
// both residual rows and the decoded values agree bit for bit, and returns
// the payload.
func matchReference(t *testing.T, c, ref *Codec, row int, g []float32, bits []byte) Payload {
	t.Helper()
	p, q := c.EncodeInto(row, g, bits), refEncode(ref, row, g)
	if p.Row != q.Row || p.N != q.N || !bytes.Equal(p.Bits, q.Bits) ||
		math.Float32bits(p.PosScale) != math.Float32bits(q.PosScale) ||
		math.Float32bits(p.NegScale) != math.Float32bits(q.NegScale) {
		t.Fatalf("row %d: payload %+v, reference %+v", row, p, q)
	}
	for i, v := range c.residual[row] {
		if w := ref.residual[row][i]; math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("row %d residual[%d] = %v, reference %v", row, i, v, w)
		}
	}
	got, want := make([]float32, p.N), make([]float32, q.N)
	Decode(p, got)
	refDecode(q, want)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("row %d decoded[%d] = %v, reference %v", row, i, got[i], want[i])
		}
	}
	return p
}

// bothBodies runs f with the vector body (where the CPU has one) and then
// with the Go body, and restores the gate.
func bothBodies(f func()) {
	vec := useAVX
	defer func() { useAVX = vec }()
	for _, useAVX = range []bool{vec, false} {
		f()
	}
}

// TestCodecMatchesReference holds both bodies of the branch-free codec to
// the branchy one it replaced: every row length and input kind, 50 chained
// encodes a row so the residual feeds back, compared bit for bit. A "zeros"
// row starts from a residual of −0, so −0 + −0 reaches the sign test.
func TestCodecMatchesReference(t *testing.T) {
	bothBodies(func() { codecMatchesReference(t) })
}

func codecMatchesReference(t *testing.T) {
	for _, kind := range refKinds {
		c, ref := NewCodec(refLens), NewCodec(refLens)
		r := tensor.NewRNG(11)
		for row, n := range refLens {
			if kind == "zeros" {
				for i := range c.residual[row] {
					c.residual[row][i] = float32(math.Copysign(0, -1))
					ref.residual[row][i] = c.residual[row][i]
				}
			}
			bits := make([]byte, (n+7)/8)
			for step := 0; step < 50; step++ {
				matchReference(t, c, ref, row, refRow(kind, n, r), bits)
			}
		}
	}
}

// FuzzEncodeMatchesReference is TestCodecMatchesReference over arbitrary
// float32 bit patterns: the input is a row of little-endian float32s, encoded
// three times in a chain, on both bodies.
func FuzzEncodeMatchesReference(f *testing.F) {
	r := tensor.NewRNG(5)
	for _, kind := range refKinds {
		for _, n := range refLens {
			var seed []byte
			for _, v := range refRow(kind, n, r) {
				seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := make([]float32, len(data)/4)
		for i := range g {
			g[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		bothBodies(func() {
			c, ref := NewCodec([]int{len(g)}), NewCodec([]int{len(g)})
			bits := make([]byte, (len(g)+7)/8)
			for step := 0; step < 3; step++ {
				matchReference(t, c, ref, 0, g, bits)
			}
		})
	})
}

// TestNaNPayloadsFollowTheInput: rows of NaNs with distinct payloads, some of
// them negative, long enough to cross the seam between the vector body and
// the Go tail or not, and new payloads every step, so each compensation
// adds an input NaN to a different residual NaN. Every NaN counts as
// negative, so the negative sum takes the first input NaN and keeps it:
// NegScale is that NaN negated, and the chained encodes match the reference
// bit for bit on both bodies.
func TestNaNPayloadsFollowTheInput(t *testing.T) {
	for _, n := range []int{2, 8, 9, 24} {
		bothBodies(func() {
			c, ref := NewCodec([]int{n}), NewCodec([]int{n})
			bits := make([]byte, (n+7)/8)
			for step := range 3 {
				g := make([]float32, n)
				for i := range g {
					b := uint32(0x7fc00000) | uint32(step+1)<<16 | uint32(i+1)<<7 | uint32(n)
					if i%3 == 1 {
						b |= 1 << 31
					}
					g[i] = math.Float32frombits(b)
				}
				p := matchReference(t, c, ref, 0, g, bits)
				if got, want := math.Float32bits(p.NegScale), math.Float32bits(g[0])^1<<31; got != want {
					t.Fatalf("n=%d avx=%v step %d: NegScale %#x, want the first NaN negated %#x", n, useAVX, step, got, want)
				}
			}
		})
	}
}

// TestDecodeEveryBytePattern decodes every sign byte, in a row of 256 whole
// bytes and a 3-value tail, into an out that holds garbage: each value must
// be the scale its bit picks, on both bodies.
func TestDecodeEveryBytePattern(t *testing.T) {
	n := 256*8 + 3
	p := Payload{N: n, PosScale: 1.5, NegScale: 2.25, Bits: make([]byte, (n+7)/8)}
	for i := range p.Bits {
		p.Bits[i] = byte(i * 167) // a permutation of the 256 patterns, then one more
	}
	want := make([]float32, n)
	refDecode(p, want)
	bothBodies(func() {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(math.NaN())
		}
		Decode(p, out)
		for i := range out {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("avx=%v: out[%d] = %v (byte %#02x), want %v", useAVX, i, out[i], p.Bits[i/8], want[i])
			}
		}
	})
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

// BenchmarkCodec times EncodeInto and Decode of a 64- and a 1024-wide row on
// each body: go test ./internal/compress -run '^$' -bench Codec.
func BenchmarkCodec(b *testing.B) {
	vec := useAVX
	defer func() { useAVX = vec }()
	for _, n := range []int{4, 8, 64, 1024} {
		g := refRow("normal", n, tensor.NewRNG(1))
		c := NewCodec([]int{n})
		bits, out := make([]byte, (n+7)/8), make([]float32, n)
		for _, useAVX = range []bool{vec, false} {
			body := map[bool]string{true: "avx", false: "go"}[useAVX]
			b.Run(fmt.Sprintf("encode/%s/n=%d", body, n), func(b *testing.B) {
				for range b.N {
					c.EncodeInto(0, g, bits)
				}
			})
			p := c.EncodeInto(0, g, bits)
			b.Run(fmt.Sprintf("decode/%s/n=%d", body, n), func(b *testing.B) {
				for range b.N {
					Decode(p, out)
				}
			})
			if !vec {
				break
			}
		}
	}
}

// TestNewCodecAllocationsDoNotGrowWithRows: the residuals share one slab, so
// a codec for a thousand rows costs what a codec for one row costs, and no
// row's residual reaches into its neighbour's.
func TestNewCodecAllocationsDoNotGrowWithRows(t *testing.T) {
	one := []int{17}
	many := make([]int, 1000)
	for i := range many {
		many[i] = 1 + i%40
	}
	a1 := testing.AllocsPerRun(20, func() { NewCodec(one) })
	aN := testing.AllocsPerRun(20, func() { NewCodec(many) })
	if aN != a1 {
		t.Fatalf("a %d-row codec allocates %v times, a 1-row codec %v", len(many), aN, a1)
	}
	c := NewCodec(many)
	for i, n := range many {
		if r := c.residual[i]; len(r) != n || cap(r) != n {
			t.Fatalf("row %d residual len %d cap %d, want %d", i, len(r), cap(r), n)
		}
	}
	g := make([]float32, many[0])
	for i := range g {
		g[i] = float32(i) - 0.3
	}
	c.Encode(0, g)
	if c.ResidualNorm(1) != 0 {
		t.Fatal("encoding row 0 wrote row 1's residual")
	}
}
