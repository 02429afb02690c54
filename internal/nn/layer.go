// Package nn is the neural-network substrate: layer-based forward/backward
// propagation, losses, SGD with momentum, and the two model families the
// paper's application paradigms need (a classifier MLP standing in for
// ConvMLP on CRUDA, and a Fourier-feature coordinate MLP standing in for
// NICE-SLAM on CRIMP).
//
// The distributed-training layers above treat a model as an ordered list of
// parameter matrices whose rows are the unit of synchronization, so every
// layer exposes its parameters and gradients as tensor.Matrix values.
package nn

import (
	"fmt"
	"math"

	"rog/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward must be called
// before Backward for the same batch; layers cache whatever activations the
// backward pass needs, the input x included, so x must not change until
// Backward has run.
//
// Both passes return the layer's scratch: Forward's output is valid until the
// layer's next Forward, Backward's until its next Backward. A caller that
// keeps one past that clones it.
type Layer interface {
	// Forward maps a batch×in activation matrix to batch×out.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes dLoss/dOut (batch×out), accumulates parameter
	// gradients, and returns dLoss/dIn (batch×in).
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's parameter matrices (may be empty).
	Params() []*tensor.Matrix
	// Grads returns gradient matrices matching Params element-for-element.
	Grads() []*tensor.Matrix
	// Name identifies the layer for diagnostics.
	Name() string
}

// Linear is a fully connected layer: out = x·W + b.
// W is in×out so that each of its rows corresponds to one input unit's
// outgoing weights — the "row" granularity the paper schedules.
type Linear struct {
	W, B   *tensor.Matrix // B is 1×out
	GW, GB *tensor.Matrix
	x      *tensor.Matrix // cached input
	out    *tensor.Matrix // Forward's scratch, reused across calls
	gw, dx *tensor.Matrix // Backward's scratch, reused across calls
	name   string
}

// NewLinear creates an in×out fully connected layer with Xavier-initialized
// weights and zero bias.
func NewLinear(in, out int, r *tensor.RNG) *Linear {
	l := &Linear{
		W:    tensor.New(in, out),
		B:    tensor.New(1, out),
		GW:   tensor.New(in, out),
		GB:   tensor.New(1, out),
		name: fmt.Sprintf("linear(%dx%d)", in, out),
	}
	l.W.XavierInit(r, in, out)
	return l
}

// sized returns m reshaped to rows×cols when its backing array is large
// enough and a fresh matrix otherwise. The contents are unspecified: the
// caller overwrites every element.
func sized(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// zeroed is sized with every element set to zero, for a scratch matrix the
// caller accumulates into.
func zeroed(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	m = sized(m, rows, cols)
	clear(m.Data)
	return m
}

// affineInto computes dst = x·W + b, rectified as ReLU.Forward rectifies when
// relu is set: the one body the training pass and the forward-only pass
// (Inference) share, so the two cannot round differently.
func (l *Linear) affineInto(dst, x *tensor.Matrix, relu bool) {
	tensor.AffineInto(dst, x, l.W, l.B.Data, relu)
}

// Forward computes x·W + b for a batch.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	l.out = sized(l.out, x.Rows, l.W.Cols)
	l.affineInto(l.out, x, false)
	return l.out
}

// Backward accumulates dW += xᵀ·dout, dB += colsum(dout) and returns
// dx = dout·Wᵀ.
func (l *Linear) Backward(dout *tensor.Matrix) *tensor.Matrix {
	// xᵀ·dout goes to a temporary and is then added, as one sum, so that a
	// gradient accumulated over several batches rounds as it always has.
	l.gw = sized(l.gw, l.W.Rows, l.W.Cols)
	tensor.MulTransAInto(l.gw, l.x, dout)
	l.GW.Add(l.gw)
	for i := 0; i < dout.Rows; i++ {
		row := dout.Row(i)
		for j, v := range row {
			l.GB.Data[j] += v
		}
	}
	l.dx = sized(l.dx, dout.Rows, l.W.Rows)
	tensor.MulTransBInto(l.dx, dout, l.W)
	return l.dx
}

func (l *Linear) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.B} }
func (l *Linear) Grads() []*tensor.Matrix  { return []*tensor.Matrix{l.GW, l.GB} }
func (l *Linear) Name() string             { return l.name }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask    []bool
	out, dx *tensor.Matrix // scratch, reused across calls
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations.
func (l *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.out = sized(l.out, x.Rows, x.Cols)
	if cap(l.mask) < len(x.Data) {
		l.mask = make([]bool, len(x.Data))
	}
	l.mask = l.mask[:len(x.Data)]
	for i, v := range x.Data {
		l.mask[i] = !(v <= 0)
		l.out.Data[i] = max(v, 0) // like the mask, lets NaN through; branch-free
	}
	return l.out
}

// Backward gates the upstream gradient by the forward mask.
func (l *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	l.dx = sized(l.dx, dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		if !l.mask[i] {
			v = 0
		}
		l.dx.Data[i] = v
	}
	return l.dx
}

func (l *ReLU) Params() []*tensor.Matrix { return nil }
func (l *ReLU) Grads() []*tensor.Matrix  { return nil }
func (l *ReLU) Name() string             { return "relu" }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	out, dx *tensor.Matrix // scratch, reused across calls
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (l *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.out = sized(l.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		l.out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return l.out
}

// Backward multiplies by 1−tanh².
func (l *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	l.dx = sized(l.dx, dout.Rows, dout.Cols)
	for i, y := range l.out.Data {
		l.dx.Data[i] = dout.Data[i] * (1 - y*y)
	}
	return l.dx
}

func (l *Tanh) Params() []*tensor.Matrix { return nil }
func (l *Tanh) Grads() []*tensor.Matrix  { return nil }
func (l *Tanh) Name() string             { return "tanh" }

// FourierEncode is a fixed (non-learned) positional encoding used by the
// implicit-map model: each input coordinate c is expanded to
// [sin(2^k π c), cos(2^k π c)] for k = 0..Levels-1, with the raw coordinate
// prepended. This is the standard NeRF/NICE-SLAM encoding.
type FourierEncode struct {
	In      int
	Levels  int
	out, dx *tensor.Matrix // scratch, reused across calls
}

// NewFourierEncode returns an encoding layer for `in` coordinates at
// `levels` octaves.
func NewFourierEncode(in, levels int) *FourierEncode {
	return &FourierEncode{In: in, Levels: levels}
}

// OutDim reports the encoded width: in * (1 + 2*levels).
func (l *FourierEncode) OutDim() int { return l.In * (1 + 2*l.Levels) }

// Forward expands each coordinate into its Fourier features.
func (l *FourierEncode) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.out = sized(l.out, x.Rows, l.OutDim())
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		dst := l.out.Row(i)
		p := 0
		for _, c := range src {
			dst[p] = c
			p++
			for k := 0; k < l.Levels; k++ {
				f := float64(int64(1)<<uint(k)) * math.Pi * float64(c)
				dst[p] = float32(math.Sin(f))
				dst[p+1] = float32(math.Cos(f))
				p += 2
			}
		}
	}
	return l.out
}

// Backward stops the gradient: the encoding has no parameters and the
// coordinates are inputs, so a zero matrix of the input shape is returned.
func (l *FourierEncode) Backward(dout *tensor.Matrix) *tensor.Matrix {
	l.dx = zeroed(l.dx, dout.Rows, l.In)
	return l.dx
}

func (l *FourierEncode) Params() []*tensor.Matrix { return nil }
func (l *FourierEncode) Grads() []*tensor.Matrix  { return nil }
func (l *FourierEncode) Name() string             { return fmt.Sprintf("fourier(%d,%d)", l.In, l.Levels) }
