// Package tensor provides the dense float32 matrix and vector types used by
// the neural-network substrate. It is deliberately small: row-major dense
// storage, the handful of BLAS-like kernels training needs, and row views so
// that the row-granulated synchronization layers can address parameter rows
// without copying.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or NewFrom to create a sized one.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFrom wraps data as a rows×cols matrix without copying.
// len(data) must equal rows*cols.
func NewFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add accumulates o into m element-wise.
func (m *Matrix) Add(o *Matrix) {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub subtracts o from m element-wise.
func (m *Matrix) Sub(o *Matrix) {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// The products and the affine map run through addScaledRows, which sums one
// output row's products in registers, eight adjacent columns a register, and
// stores it once. Every output element still receives exactly the products
// the plain triple loop gave it, in ascending k, from the same +0, with the
// same zero-skip, each folded in by a multiply and an add rounded separately,
// then one rounded + b[j] and, for a rectified layer, max(v, 0): the results
// are bit-identical to the plain loops, which tensor_test.go keeps as the
// reference.

// mustCover panics unless o.Data holds o's Rows×Cols elements: the one check
// per product that lets the vector kernel read o's rows unchecked.
func (o *Matrix) mustCover(op string) {
	if o.Rows < 0 || o.Cols < 0 || o.Cols > 0 && len(o.Data)/o.Cols < o.Rows {
		panic(fmt.Sprintf("tensor: %s operand %dx%d has %d elements", op, o.Rows, o.Cols, len(o.Data)))
	}
}

// MulInto computes dst = m × o. dst must be m.Rows×o.Cols and distinct from
// both operands.
func MulInto(dst, m, o *Matrix) { affineInto("MulInto", dst, m, o, nil, false) }

// AffineInto computes dst = m × o + bias and, when relu is set, replaces
// every element v by max(v, 0) (NaN stays NaN, -0 becomes +0). bias is nil
// for none or holds o.Cols values; dst must be m.Rows×o.Cols and distinct
// from the operands.
func AffineInto(dst, m, o *Matrix, bias []float32, relu bool) {
	if bias != nil && len(bias) != o.Cols {
		panic(fmt.Sprintf("tensor: AffineInto bias has %d values, want %d", len(bias), o.Cols))
	}
	affineInto("AffineInto", dst, m, o, bias, relu)
}

func affineInto(op string, dst, m, o *Matrix, bias []float32, relu bool) {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: %s inner dim %d vs %d", op, m.Cols, o.Rows))
	}
	if dst.Rows != m.Rows || dst.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d want %dx%d", op, dst.Rows, dst.Cols, m.Rows, o.Cols))
	}
	o.mustCover(op)
	var t terms
	for i := 0; i < m.Rows; i++ {
		t.addProducts(dst.Row(i), m.Data, i*m.Cols, 1, o, bias, relu)
	}
}

// Mul returns m × o as a fresh matrix.
func Mul(m, o *Matrix) *Matrix {
	dst := New(m.Rows, o.Cols)
	MulInto(dst, m, o)
	return dst
}

// MulTransAInto computes dst = mᵀ × o (m is used transposed).
func MulTransAInto(dst, m, o *Matrix) {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: MulTransAInto inner dim %d vs %d", m.Rows, o.Rows))
	}
	if dst.Rows != m.Cols || dst.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: MulTransAInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, m.Cols, o.Cols))
	}
	o.mustCover("MulTransAInto")
	var t terms
	for i := 0; i < m.Cols; i++ {
		t.addProducts(dst.Row(i), m.Data, i, m.Cols, o, nil, false)
	}
}

// kChunk is how many terms of the inner dimension are compacted at a time.
const kChunk = 256

// terms is the kernels' on-stack scratch: the non-zero multipliers of up to
// kChunk terms and the offsets of the rows of o they scale.
type terms struct {
	off [kChunk]int
	val [kChunk]float32
}

// addProducts sets di to Σₖ s[base+k·stride] · (row k of o), k ascending,
// zero multipliers skipped, then applies bias and relu as addScaledRows
// does. The skip is decided once per term, while the terms are compacted
// into t, not once per term and column block; an inner dimension above
// kChunk goes chunk by chunk, the sums passing through di in between, which
// a float32 store and load leave unchanged.
func (t *terms) addProducts(di, s []float32, base, stride int, o *Matrix, bias []float32, relu bool) {
	rows, cols := o.Rows, o.Cols
	for k0 := 0; ; k0 += kChunk {
		nz := t.compact(s, base+k0*stride, stride, k0*cols, cols, min(kChunk, rows-k0))
		if k0+kChunk >= rows {
			addScaledRows(di, o.Data, t.off[:nz], t.val[:nz], bias, k0 > 0, relu)
			return
		}
		addScaledRows(di, o.Data, t.off[:nz], t.val[:nz], nil, k0 > 0, false)
	}
}

// compact stores the kn terms s[at], s[at+stride], … with their row offsets
// off, off+cols, … into t, keeps the non-zero ones and returns how many it
// kept. The assembly loop runs wherever the vector body does.
func (t *terms) compact(s []float32, at, stride, off, cols, kn int) int {
	if kn > 0 {
		_ = s[at+(kn-1)*stride] // the one check: the assembly reads s unchecked
	}
	if useAVX {
		return compactAVX(&t.off, &t.val, s, at, stride, off, cols, kn)
	}
	return t.compactGo(s, at, stride, off, cols, kn)
}

// compactGo is compact in Go. Inlined into its caller it would keep nz on the
// stack, a store and a reload on every term's dependency chain.
//
//go:noinline
func (t *terms) compactGo(s []float32, at, stride, off, cols, kn int) int {
	nz := uint(0)
	for range kn {
		mv := s[at]
		t.off[nz%kChunk], t.val[nz%kChunk] = off, mv
		if mv != 0 { // only now is the store kept: a CMOV, no branch to mispredict
			nz++
		}
		at += stride
		off += cols
	}
	return int(nz)
}

// addScaledRows sets di to the sum of val[t] times the len(di)-wide row of
// data at off[t], for t ascending, from +0 (or, with acc, from di); every
// such row must lie inside data (mustCover). Then bias, when non-empty, is
// added (one rounded add per element) and, with relu, each v becomes
// max(v, 0). The vector body runs it where the CPU has one.
func addScaledRows(di, data []float32, off []int, val, bias []float32, acc, relu bool) {
	val = val[:len(off)]
	if len(bias) > 0 {
		bias = bias[:len(di)]
	}
	if useAVX {
		addScaledRowsAVX(di, data, off, val, bias, acc, relu)
		return
	}
	addScaledRowsGo(di, data, off, val, bias, acc, relu)
}

// addScaledRowsGo is addScaledRows in Go, eight columns in eight locals.
func addScaledRowsGo(di, data []float32, off []int, val, bias []float32, acc, relu bool) {
	val = val[:len(off)]
	if !acc {
		clear(di)
	}
	j := 0
	for ; j+8 <= len(di); j += 8 {
		d := di[j : j+8 : j+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for t, at := range off {
			mv := val[t]
			ov := data[at+j : at+j+8 : at+j+8]
			a0 += mv * ov[0]
			a1 += mv * ov[1]
			a2 += mv * ov[2]
			a3 += mv * ov[3]
			a4 += mv * ov[4]
			a5 += mv * ov[5]
			a6 += mv * ov[6]
			a7 += mv * ov[7]
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; j < len(di); j++ {
		a := di[j]
		for t, at := range off {
			a += val[t] * data[at+j]
		}
		di[j] = a
	}
	if len(bias) > 0 {
		bias = bias[:len(di)]
		for j := range di {
			di[j] += bias[j]
		}
	}
	if relu {
		for j, v := range di {
			di[j] = max(v, 0)
		}
	}
}

// AXPY computes y[i] += a·x[i]: addScaledRows with the one term a, so each
// element is y[i] + float32(a·x[i]), the product and the sum each rounded,
// never fused — what the loop `y[i] += x[i] * a` gives. len(x) must equal
// len(y).
func AXPY(y, x []float32, a float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: AXPY length %d vs %d", len(x), len(y)))
	}
	off, val := [1]int{}, [1]float32{a}
	addScaledRows(y, x, off[:], val[:], nil, true, false)
}

// MulTransBInto computes dst = m × oᵀ (o is used transposed). Panels of 32
// rows of o by kChunk columns are packed transposed on the stack, and each row
// of m scales one through addScaledRows: every term used (no zero-skip), each
// element summed from +0 in ascending k.
func MulTransBInto(dst, m, o *Matrix) {
	const panelRows = 32 // one pass of the vector body's four accumulators
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: MulTransBInto inner dim %d vs %d", m.Cols, o.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: MulTransBInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, m.Rows, o.Rows))
	}
	o.mustCover("MulTransBInto")
	var off [kChunk]int
	var panel [kChunk * panelRows]float32
	n := m.Cols
	for j0 := 0; j0 < o.Rows; j0 += panelRows {
		w := min(panelRows, o.Rows-j0)
		for k0 := 0; k0 == 0 || k0 < n; k0 += kChunk { // once even for n = 0: it sets dst
			kn := min(kChunk, n-k0)
			for c := range w {
				for k, v := range o.Row(j0 + c)[k0 : k0+kn] {
					panel[k*w+c] = v
				}
			}
			for k := range kn {
				off[k] = k * w
			}
			for i := range m.Rows {
				addScaledRows(dst.Row(i)[j0:j0+w], panel[:kn*w], off[:kn], m.Row(i)[k0:k0+kn], nil, k0 > 0, false)
			}
		}
	}
}

// Transpose returns a fresh transposed copy of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Apply replaces every element x with f(x).
func (m *Matrix) Apply(f func(float32) float32) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// SumAbs returns the sum of absolute values of all elements.
func (m *Matrix) SumAbs() float64 {
	var s float64
	for _, v := range m.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// MeanAbs returns the mean absolute value of all elements (0 for empty).
func (m *Matrix) MeanAbs() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.SumAbs() / float64(len(m.Data))
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Equal reports whether m and o have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether m and o agree element-wise within tol.
func (m *Matrix) AlmostEqual(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact shape-and-norm summary (not the full contents).
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d, |.|=%.4g)", m.Rows, m.Cols, m.Norm2())
}
