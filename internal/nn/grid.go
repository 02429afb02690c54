package nn

import (
	"fmt"
	"math"

	"rog/internal/tensor"
)

// FeatureGrid2D is the core representation of NICE-SLAM-style implicit
// mapping: a learned G×G grid of F-dimensional feature vectors covering
// [-1,1]², queried by bilinear interpolation. The grid is stored as a
// (G·G)×F parameter matrix, so each *row* is one map cell — under
// row-granulated synchronization ROG ships individual map regions, which
// is precisely the "neural implicit scalable encoding" decomposition.
type FeatureGrid2D struct {
	G, F  int
	Grid  *tensor.Matrix // (G*G)×F
	GGrid *tensor.Matrix
	// cached interpolation state for the backward pass
	idx     [][4]int
	wts     [][4]float32
	out, dx *tensor.Matrix // scratch, reused across calls
}

// NewFeatureGrid2D creates a grid with small random features.
func NewFeatureGrid2D(g, f int, r *tensor.RNG) *FeatureGrid2D {
	l := &FeatureGrid2D{
		G:     g,
		F:     f,
		Grid:  tensor.New(g*g, f),
		GGrid: tensor.New(g*g, f),
	}
	l.Grid.FillNormal(r, 0.05)
	return l
}

// locate maps a coordinate in [-1,1] to a cell index and fraction.
func (l *FeatureGrid2D) locate(c float32) (int, float32) {
	// Map [-1,1] → [0, G-1].
	v := (float64(c) + 1) / 2 * float64(l.G-1)
	if v < 0 {
		v = 0
	}
	if v > float64(l.G-1) {
		v = float64(l.G - 1)
	}
	i := int(math.Floor(v))
	if i >= l.G-1 {
		i = l.G - 2
	}
	return i, float32(v - float64(i))
}

// Forward interpolates features at batch×2 coordinates.
func (l *FeatureGrid2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != 2 {
		panic(fmt.Sprintf("nn: FeatureGrid2D wants batch×2 coords, got %d cols", x.Cols))
	}
	l.out = zeroed(l.out, x.Rows, l.F)
	if cap(l.idx) < x.Rows {
		l.idx = make([][4]int, x.Rows)
		l.wts = make([][4]float32, x.Rows)
	}
	l.idx, l.wts = l.idx[:x.Rows], l.wts[:x.Rows]
	for b := 0; b < x.Rows; b++ {
		cx, cy := x.At(b, 0), x.At(b, 1)
		ix, fx := l.locate(cx)
		iy, fy := l.locate(cy)
		cells := [4]int{
			iy*l.G + ix, iy*l.G + ix + 1,
			(iy+1)*l.G + ix, (iy+1)*l.G + ix + 1,
		}
		w := [4]float32{
			(1 - fx) * (1 - fy), fx * (1 - fy),
			(1 - fx) * fy, fx * fy,
		}
		l.idx[b] = cells
		l.wts[b] = w
		dst := l.out.Row(b)
		for k := 0; k < 4; k++ {
			cell := l.Grid.Row(cells[k])
			for j := 0; j < l.F; j++ {
				dst[j] += w[k] * cell[j]
			}
		}
	}
	return l.out
}

// Backward scatters the feature gradient to the four interpolation corners
// and stops the gradient at the coordinates (they are inputs).
func (l *FeatureGrid2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for b := 0; b < dout.Rows; b++ {
		g := dout.Row(b)
		for k := 0; k < 4; k++ {
			cell := l.GGrid.Row(l.idx[b][k])
			w := l.wts[b][k]
			for j := 0; j < l.F; j++ {
				cell[j] += w * g[j]
			}
		}
	}
	l.dx = zeroed(l.dx, dout.Rows, 2)
	return l.dx
}

func (l *FeatureGrid2D) Params() []*tensor.Matrix { return []*tensor.Matrix{l.Grid} }
func (l *FeatureGrid2D) Grads() []*tensor.Matrix  { return []*tensor.Matrix{l.GGrid} }
func (l *FeatureGrid2D) Name() string             { return fmt.Sprintf("grid(%dx%dx%d)", l.G, l.G, l.F) }

// NewGridMap builds a NICE-SLAM-style implicit map: a learned feature grid
// followed by a small MLP decoder with a tanh output. Compared with the
// Fourier-feature MLP, most parameter rows live in the grid, giving the
// row scheduler spatially local units to prioritize.
func NewGridMap(gridSize, features int, hidden []int, out int, r *tensor.RNG) *Sequential {
	var layers []Layer
	layers = append(layers, NewFeatureGrid2D(gridSize, features, r))
	prev := features
	for _, h := range hidden {
		layers = append(layers, NewLinear(prev, h, r), NewReLU())
		prev = h
	}
	layers = append(layers, NewLinear(prev, out, r), NewTanh())
	return NewSequential(layers...)
}
