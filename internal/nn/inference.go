package nn

import "rog/internal/tensor"

// Inference runs models forward only: it records nothing for a backward
// pass and writes every Linear layer's output into a buffer it owns and
// reuses. A Linear followed by a ReLU is one call of the affine kernel, which
// rectifies each element in the register before its one store; a ReLU
// anywhere else is applied in place on those buffers. Layer kinds without
// such a form (convolution, pooling, Fourier encoding, tanh, feature grid)
// run their ordinary Forward into their own scratch, so a model with one of
// them must not be passed here between its Forward and Backward. The
// outputs equal Sequential.Forward's bit for bit: Linear shares affineInto
// with it, and both rectifiers are Go's max(v, 0) (NaN passes, -0 becomes
// +0).
//
// One Inference serves any number of models, one call at a time; concurrent
// callers each need their own. The zero value is ready to use.
type Inference struct {
	bufs []*tensor.Matrix // one per layer index, grown on demand
}

// Forward returns m's output for the batch x, valid until the Inference's
// next Forward (or, when m's last layer has no forward-only form, until
// that layer's next Forward); x is never written to.
func (inf *Inference) Forward(m *Sequential, x *tensor.Matrix) *tensor.Matrix {
	for len(inf.bufs) < len(m.Layers) {
		inf.bufs = append(inf.bufs, nil)
	}
	in := x
	for i := 0; i < len(m.Layers); i++ {
		switch l := m.Layers[i].(type) {
		case *Linear:
			inf.bufs[i] = sized(inf.bufs[i], x.Rows, l.W.Cols)
			relu := false
			if i+1 < len(m.Layers) {
				_, relu = m.Layers[i+1].(*ReLU)
			}
			l.affineInto(inf.bufs[i], x, relu)
			x = inf.bufs[i]
			if relu {
				i++
			}
		case *ReLU:
			dst := x
			if x == in { // in place on everything but the caller's batch
				inf.bufs[i] = sized(inf.bufs[i], x.Rows, x.Cols)
				dst = inf.bufs[i]
			}
			for j, v := range x.Data {
				dst.Data[j] = max(v, 0)
			}
			x = dst
		default:
			x = l.Forward(x)
		}
	}
	return x
}
