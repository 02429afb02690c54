// Package compress implements the lossless-in-expectation 1-bit gradient
// compression the paper uses before every transmission: each gradient value
// is quantized to its sign times a per-row scale, and the quantization error
// is kept in a local residual (error compensation) and folded into the next
// encode of the same row, so no gradient mass is ever lost. This is the
// scheme of Sun et al. [22] applied at row granularity, with bit packing
// standing in for cupy/numpy packbits.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload is one compressed gradient row as it travels on the wire.
type Payload struct {
	Row      int     // global row index within the model
	N        int     // number of values in the row
	PosScale float32 // magnitude applied to positive signs
	NegScale float32 // magnitude applied to negative signs
	Bits     []byte  // packed sign bits, 1 = positive
}

// payloadHeader is the overhead of the self-describing Marshal format used
// by the real-socket transport: row index (4) + n (4) + two scales (8).
const payloadHeader = 16

// wireHeader is the per-row cost charged by the schedulers and the network
// simulation: a 2-byte row index plus a 2-byte scale. The row's length and
// the second scale need not travel — both ends share the partition, and the
// paper's own accounting (Sec. III-A) likewise charges one integer index
// per row.
const wireHeader = 4

// WireSize returns the number of bytes this payload occupies on the wire,
// including the row-index overhead the paper charges to finer granularity.
func (p Payload) WireSize() int { return wireHeader + len(p.Bits) }

// RowWireSize predicts the wire size of a compressed row of n values
// without encoding it; the scheduler uses this to budget transmissions.
func RowWireSize(n int) int { return wireHeader + (n+7)/8 }

// Codec compresses rows with 1-bit quantization and error feedback. One
// Codec instance belongs to one sender (worker or server-side per-worker
// copy); the residual state is what makes the compression lossless over
// time.
type Codec struct {
	residual [][]float32
	comp     []float64 // EncodeInto's compensated row, reused by every call
}

// NewCodec creates a codec for a model whose rows have the given lengths.
// The residuals are capacity-capped views of one slab, so a codec costs the
// same few allocations whatever its row count.
func NewCodec(rowLens []int) *Codec {
	total, longest := 0, 0
	for _, n := range rowLens {
		total += n
		longest = max(longest, n)
	}
	slab := make([]float32, total)
	res := make([][]float32, len(rowLens))
	off := 0
	for i, n := range rowLens {
		res[i] = slab[off : off+n : off+n]
		off += n
	}
	return &Codec{residual: res, comp: make([]float64, longest)}
}

// Encode is EncodeInto over a fresh bit slice, the payload's one
// allocation, for a caller that owns no buffer of the row's lifetime.
func (c *Codec) Encode(rowID int, g []float32) Payload {
	return c.EncodeInto(rowID, g, make([]byte, (len(g)+7)/8))
}

// EncodeInto quantizes row g (global row index rowID), folding in and
// updating the error-feedback residual, and packs the signs into bits, which
// must hold (len(g)+7)/8 bytes. g itself is not modified. The payload's Bits
// alias bits: it is valid until the caller reuses them, so a buffer belongs
// to whoever holds the payload (engine.Replica and engine.Peer keep one per
// unit; TestCodecMatchesReference pins the arithmetic to the branchy
// original, engine.TestHeldPullSurvivesRejoinBacklog the ownership).
//
// The row's whole bytes go through the vector body where there is one
// (compensateAVX, residualAVX), the tail byte and every row without it
// through the loops below; the two sums run on across the seam in index
// order. Neither loop branches on a sign: x >= 0 becomes a 0/1 that masks
// each sum's addend to +0 and indexes the two-entry reconstruction table.
// Adding +0 leaves a sum that is never −0 bit-identical, so scales and
// residuals are exactly the branchy loop's (−0 counts as positive, NaN as
// negative), and add fixes which NaN a sum carries.
func (c *Codec) EncodeInto(rowID int, g []float32, bits []byte) Payload {
	res := c.residual[rowID]
	if len(g) != len(res) {
		panic(fmt.Sprintf("compress: row %d length %d != %d", rowID, len(g), len(res)))
	}
	n := len(g)
	bits = bits[:(n+7)/8]
	comp := c.comp[:n]
	// Separate positive/negative means minimize L2 error of the
	// reconstruction (the original 1-bit SGD formulation).
	var posSum, negSum float64
	posCnt, v := 0, 0
	if useAVX && n >= 8 {
		v = n &^ 7
		posSum, negSum, posCnt = compensateAVX(comp[:v], g, res, bits)
	}
	for i := v; i < n; i++ {
		x := add(float64(g[i]), float64(res[i]))
		comp[i] = x
		b := positive(x)
		mask := -uint64(b)
		// posSum needs no add: a NaN x masks its addend to +0, and sums of
		// values >= 0 never make a NaN.
		posSum += math.Float64frombits(math.Float64bits(x) & mask)
		negSum = add(negSum, math.Float64frombits(math.Float64bits(-x)&^mask))
		posCnt += int(b)
	}
	var posScale, negScale float64
	if posCnt > 0 {
		posScale = posSum / float64(posCnt)
	}
	if negCnt := n - posCnt; negCnt > 0 {
		negScale = negSum / float64(negCnt)
	}
	if v > 0 {
		residualAVX(comp[:v], res, posScale, -negScale)
	}
	tab := [2]float64{-negScale, posScale}
	for k := v / 8; k < len(bits); k++ {
		lo, hi := 8*k, min(8*k+8, n)
		row, rres := comp[lo:hi], res[lo:hi]
		var byt byte
		for j, x := range row {
			b := positive(x)
			byt |= b << j
			rres[j] = float32(x - tab[b&1])
		}
		bits[k] = byt
	}
	return Payload{Row: rowID, N: n, PosScale: float32(posScale), NegScale: float32(negScale), Bits: bits}
}

// positive is x >= 0 as 0/1; the compiler selects it without a branch.
func positive(x float64) byte {
	var b byte
	if x >= 0 {
		b = 1
	}
	return b
}

// add is a + b where a NaN a is the result whatever b is: the NaN rule of
// x86's first source, which the compiler may otherwise hand to b by
// commuting the sum. Every NaN here is quiet (it came through a float32
// conversion or an operation), so a NaN's payload depends on the input
// alone, the same in the vector body, the Go body and any build of either.
func add(a, b float64) float64 {
	if a != a {
		return a
	}
	return a + b
}

// Decode reconstructs the row into out, which must have length p.N: each
// value is one of two entries, picked by its bit. The row's whole bytes go
// through the vector body where there is one, the tail byte through the loop.
func Decode(p Payload, out []float32) {
	if len(out) != p.N {
		panic(fmt.Sprintf("compress: decode into %d, want %d", len(out), p.N))
	}
	bits := p.Bits[:(p.N+7)/8]
	neg, pos := -p.NegScale, p.PosScale
	v := 0
	if useAVX && p.N >= 8 {
		v = p.N &^ 7
		decodeAVX(out[:v], bits, pos, neg)
	}
	tab := [2]float32{neg, pos}
	for k := v / 8; k < len(bits); k++ {
		row, byt := out[8*k:min(8*k+8, p.N)], bits[k]
		for j := range row {
			row[j] = tab[byt>>j&1]
		}
	}
}

// ResidualNorm reports the L2 norm of a row's residual, for tests and
// diagnostics.
func (c *Codec) ResidualNorm(rowID int) float64 {
	var s float64
	for _, v := range c.residual[rowID] {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Marshal serializes the payload for transports that need raw bytes.
func (p Payload) Marshal() []byte {
	return p.AppendTo(make([]byte, 0, payloadHeader+len(p.Bits)))
}

// AppendTo appends the payload's Marshal form to dst, so a sender can
// serialize straight into its frame buffer.
func (p Payload) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Row))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.N))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p.PosScale))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p.NegScale))
	return append(dst, p.Bits...)
}

// Unmarshal parses a payload previously produced by Marshal. The payload's
// Bits alias buf: decode it (or copy them) before buf is reused.
func Unmarshal(buf []byte) (Payload, error) {
	if len(buf) < payloadHeader {
		return Payload{}, fmt.Errorf("compress: payload too short (%d bytes)", len(buf))
	}
	p := Payload{
		Row:      int(binary.LittleEndian.Uint32(buf[0:])),
		N:        int(binary.LittleEndian.Uint32(buf[4:])),
		PosScale: math.Float32frombits(binary.LittleEndian.Uint32(buf[8:])),
		NegScale: math.Float32frombits(binary.LittleEndian.Uint32(buf[12:])),
		Bits:     buf[payloadHeader:],
	}
	if want := (p.N + 7) / 8; len(p.Bits) != want {
		return Payload{}, fmt.Errorf("compress: payload body %d bytes, want %d", len(p.Bits), want)
	}
	return p, nil
}

// Ratio reports the compression ratio (wire bytes / raw float32 bytes) for
// a row of n values — the paper quotes ≈3.2 % for its models.
func Ratio(n int) float64 {
	if n == 0 {
		return 1
	}
	return float64(RowWireSize(n)) / float64(4*n)
}
