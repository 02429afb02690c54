package nn

import (
	"slices"

	"rog/internal/tensor"
)

// Sequential chains layers. It is the model type used throughout the repo:
// the distributed layers address its parameters as a flat, ordered list of
// matrices whose rows are the synchronization unit. Build one with
// NewSequential.
type Sequential struct {
	Layers []Layer
	params []*tensor.Matrix // Params, listed once by NewSequential
	grads  []*tensor.Matrix // Grads, likewise
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	var params, grads []*tensor.Matrix
	for _, l := range layers {
		params = append(params, l.Params()...)
		grads = append(grads, l.Grads()...)
	}
	return &Sequential{Layers: layers, params: slices.Clip(params), grads: slices.Clip(grads)}
}

// Forward runs the batch through every layer. The result is the last
// layer's scratch, valid until the model's next Forward.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the loss gradient back through every layer,
// accumulating parameter gradients.
func (s *Sequential) Backward(dout *tensor.Matrix) {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
}

// Params returns all parameter matrices in layer order. The list is built
// once, by NewSequential, and shared by every caller: read it, do not
// modify it.
func (s *Sequential) Params() []*tensor.Matrix {
	return s.params
}

// Grads returns all gradient matrices, matching Params element-for-element.
// Like Params, the list is built once and shared.
func (s *Sequential) Grads() []*tensor.Matrix {
	return s.grads
}

// ZeroGrads clears every gradient matrix.
func (s *Sequential) ZeroGrads() {
	for _, g := range s.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.Data)
	}
	return n
}

// NumRows returns the total number of parameter rows across all matrices —
// the count of schedulable units under row granularity.
func (s *Sequential) NumRows() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Rows
	}
	return n
}

// CopyParamsFrom copies every parameter of src into s. The two models must
// have identical architecture.
func (s *Sequential) CopyParamsFrom(src *Sequential) {
	sp, dp := src.Params(), s.Params()
	if len(sp) != len(dp) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i, p := range dp {
		p.CopyFrom(sp[i])
	}
}
