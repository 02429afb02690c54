package nn

import (
	"fmt"

	"rog/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and symmetric zero padding.
// Activations travel between layers as flattened batch×(C·H·W) matrices in
// channel-major (C, then H, then W) order.
//
// The kernel is stored as an outC×(inC·K·K) matrix, so each *row* is one
// output filter — under row-granulated synchronization, ROG schedules
// whole filters, matching how ConvMLP's convolutional parameters decompose
// in the paper.
type Conv2D struct {
	InC, H, W int // input geometry
	OutC, K   int // filters and (square) kernel size
	Pad       int

	Kern, B *tensor.Matrix // Kern: OutC×(InC·K·K); B: 1×OutC
	GK, GB  *tensor.Matrix
	x       *tensor.Matrix // cached input
	out, dx *tensor.Matrix // scratch, reused across calls
	name    string
}

// NewConv2D creates a convolution layer. pad of K/2 preserves H×W.
func NewConv2D(inC, h, w, outC, k, pad int, r *tensor.RNG) *Conv2D {
	l := &Conv2D{
		InC: inC, H: h, W: w, OutC: outC, K: k, Pad: pad,
		Kern: tensor.New(outC, inC*k*k),
		B:    tensor.New(1, outC),
		GK:   tensor.New(outC, inC*k*k),
		GB:   tensor.New(1, outC),
		name: fmt.Sprintf("conv(%dx%dx%d->%d,k%d)", inC, h, w, outC, k),
	}
	l.Kern.XavierInit(r, inC*k*k, outC)
	return l
}

// OutH returns the output height.
func (l *Conv2D) OutH() int { return l.H + 2*l.Pad - l.K + 1 }

// OutW returns the output width.
func (l *Conv2D) OutW() int { return l.W + 2*l.Pad - l.K + 1 }

// OutDim returns the flattened output width OutC·OutH·OutW.
func (l *Conv2D) OutDim() int { return l.OutC * l.OutH() * l.OutW() }

// at reads input pixel (c,y,x) of sample row, honoring zero padding.
func (l *Conv2D) at(row []float32, c, y, x int) float32 {
	if y < 0 || y >= l.H || x < 0 || x >= l.W {
		return 0
	}
	return row[c*l.H*l.W+y*l.W+x]
}

// Forward computes the convolution for a batch.
func (l *Conv2D) Forward(xm *tensor.Matrix) *tensor.Matrix {
	if xm.Cols != l.InC*l.H*l.W {
		panic(fmt.Sprintf("nn: %s input width %d, want %d", l.name, xm.Cols, l.InC*l.H*l.W))
	}
	l.x = xm
	oh, ow := l.OutH(), l.OutW()
	l.out = sized(l.out, xm.Rows, l.OutDim())
	for b := 0; b < xm.Rows; b++ {
		in := xm.Row(b)
		dst := l.out.Row(b)
		for oc := 0; oc < l.OutC; oc++ {
			kern := l.Kern.Row(oc)
			bias := l.B.Data[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					ki := 0
					for ic := 0; ic < l.InC; ic++ {
						for ky := 0; ky < l.K; ky++ {
							for kx := 0; kx < l.K; kx++ {
								s += kern[ki] * l.at(in, ic, oy-l.Pad+ky, ox-l.Pad+kx)
								ki++
							}
						}
					}
					dst[oc*oh*ow+oy*ow+ox] = s + bias
				}
			}
		}
	}
	return l.out
}

// Backward accumulates kernel/bias gradients and returns dLoss/dInput.
func (l *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	oh, ow := l.OutH(), l.OutW()
	l.dx = zeroed(l.dx, l.x.Rows, l.x.Cols)
	for b := 0; b < l.x.Rows; b++ {
		in := l.x.Row(b)
		dIn := l.dx.Row(b)
		grad := dout.Row(b)
		for oc := 0; oc < l.OutC; oc++ {
			kern := l.Kern.Row(oc)
			gk := l.GK.Row(oc)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad[oc*oh*ow+oy*ow+ox]
					if g == 0 {
						continue
					}
					l.GB.Data[oc] += g
					ki := 0
					for ic := 0; ic < l.InC; ic++ {
						for ky := 0; ky < l.K; ky++ {
							iy := oy - l.Pad + ky
							for kx := 0; kx < l.K; kx++ {
								ix := ox - l.Pad + kx
								if iy >= 0 && iy < l.H && ix >= 0 && ix < l.W {
									idx := ic*l.H*l.W + iy*l.W + ix
									gk[ki] += g * in[idx]
									dIn[idx] += g * kern[ki]
								}
								ki++
							}
						}
					}
				}
			}
		}
	}
	return l.dx
}

func (l *Conv2D) Params() []*tensor.Matrix { return []*tensor.Matrix{l.Kern, l.B} }
func (l *Conv2D) Grads() []*tensor.Matrix  { return []*tensor.Matrix{l.GK, l.GB} }
func (l *Conv2D) Name() string             { return l.name }

// AvgPool2D downsamples each channel by averaging non-overlapping S×S
// windows; it has no parameters.
type AvgPool2D struct {
	C, H, W, S int
	out, dx    *tensor.Matrix // scratch, reused across calls
}

// NewAvgPool2D creates a pooling layer; H and W must be divisible by s.
func NewAvgPool2D(c, h, w, s int) *AvgPool2D {
	if h%s != 0 || w%s != 0 {
		panic(fmt.Sprintf("nn: pool %dx%d not divisible by %d", h, w, s))
	}
	return &AvgPool2D{C: c, H: h, W: w, S: s}
}

// OutDim returns the flattened output width.
func (l *AvgPool2D) OutDim() int { return l.C * (l.H / l.S) * (l.W / l.S) }

// Forward averages each window.
func (l *AvgPool2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	oh, ow := l.H/l.S, l.W/l.S
	l.out = sized(l.out, x.Rows, l.OutDim())
	inv := 1 / float32(l.S*l.S)
	for b := 0; b < x.Rows; b++ {
		in := x.Row(b)
		dst := l.out.Row(b)
		for c := 0; c < l.C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for dy := 0; dy < l.S; dy++ {
						for dx := 0; dx < l.S; dx++ {
							s += in[c*l.H*l.W+(oy*l.S+dy)*l.W+ox*l.S+dx]
						}
					}
					dst[c*oh*ow+oy*ow+ox] = s * inv
				}
			}
		}
	}
	return l.out
}

// Backward distributes each window's gradient evenly.
func (l *AvgPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	oh, ow := l.H/l.S, l.W/l.S
	l.dx = zeroed(l.dx, dout.Rows, l.C*l.H*l.W)
	inv := 1 / float32(l.S*l.S)
	for b := 0; b < dout.Rows; b++ {
		grad := dout.Row(b)
		dst := l.dx.Row(b)
		for c := 0; c < l.C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad[c*oh*ow+oy*ow+ox] * inv
					for dy := 0; dy < l.S; dy++ {
						for dxx := 0; dxx < l.S; dxx++ {
							dst[c*l.H*l.W+(oy*l.S+dy)*l.W+ox*l.S+dxx] += g
						}
					}
				}
			}
		}
	}
	return l.dx
}

func (l *AvgPool2D) Params() []*tensor.Matrix { return nil }
func (l *AvgPool2D) Grads() []*tensor.Matrix  { return nil }
func (l *AvgPool2D) Name() string             { return fmt.Sprintf("avgpool(%d)", l.S) }

// NewConvMLP builds the ConvMLP-family model of the paper's CRUDA
// experiments at reduced scale: a convolutional tokenizer stem followed by
// an MLP head — the architecture whose mixed row shapes (per-filter rows in
// the stem, per-neuron rows in the head) exercise row-granulated
// scheduling exactly as the paper's ConvMLP-M does.
func NewConvMLP(inC, h, w int, stem []int, hidden []int, classes int, r *tensor.RNG) *Sequential {
	var layers []Layer
	c := inC
	for _, outC := range stem {
		conv := NewConv2D(c, h, w, outC, 3, 1, r)
		layers = append(layers, conv, NewReLU())
		c = outC
	}
	pool := NewAvgPool2D(c, h, w, 2)
	layers = append(layers, pool)
	prev := pool.OutDim()
	for _, hdim := range hidden {
		layers = append(layers, NewLinear(prev, hdim, r), NewReLU())
		prev = hdim
	}
	layers = append(layers, NewLinear(prev, classes, r))
	return NewSequential(layers...)
}
