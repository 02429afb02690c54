package dataset

import (
	"math"

	"rog/internal/tensor"
)

// ImageConfig controls the synthetic image classification task used with
// the ConvMLP model family: each class is a characteristic spatial pattern
// (an oriented grating plus a class-specific blob layout), jittered per
// sample — small images whose class evidence is genuinely spatial, so a
// convolutional stem earns its keep.
type ImageConfig struct {
	Classes  int
	H, W     int
	TrainPer int
	TestPer  int
	Jitter   float64 // per-sample pixel noise std
	Shift    int     // max per-sample translation in pixels
	Seed     uint64
}

// DefaultImageConfig returns an 8×8, 10-class task sized for CI.
func DefaultImageConfig() ImageConfig {
	return ImageConfig{
		Classes:  10,
		H:        8,
		W:        8,
		TrainPer: 60,
		TestPer:  20,
		Jitter:   0.35,
		Shift:    1,
		Seed:     1,
	}
}

// ImageSet is the synthetic image dataset (flattened pixels in Sample.X).
type ImageSet struct {
	Cfg       ImageConfig
	Train     []Sample
	Test      []Sample
	templates []*tensor.Matrix // per-class H×W pattern
}

// NewImageSet synthesizes the dataset.
func NewImageSet(cfg ImageConfig) *ImageSet {
	r := tensor.NewRNG(cfg.Seed)
	d := &ImageSet{Cfg: cfg}
	for c := 0; c < cfg.Classes; c++ {
		d.templates = append(d.templates, classTemplate(cfg, r))
	}
	d.Train = d.generate(cfg.TrainPer, r.Split())
	d.Test = d.generate(cfg.TestPer, r.Split())
	return d
}

// classTemplate draws a class's characteristic pattern: an oriented
// sinusoidal grating plus two bright blobs at class-specific positions.
func classTemplate(cfg ImageConfig, r *tensor.RNG) *tensor.Matrix {
	t := tensor.New(cfg.H, cfg.W)
	theta := r.Float64() * 3.14159
	freq := 0.6 + r.Float64()*1.2
	phase := r.Float64() * 6.28318
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			u := float64(x)*math.Cos(theta) + float64(y)*math.Sin(theta)
			t.Set(y, x, float32(0.6*math.Sin(u*freq+phase)))
		}
	}
	for b := 0; b < 2; b++ {
		by, bx := r.Intn(cfg.H), r.Intn(cfg.W)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				y, x := by+dy, bx+dx
				if y >= 0 && y < cfg.H && x >= 0 && x < cfg.W {
					t.Set(y, x, t.At(y, x)+0.8)
				}
			}
		}
	}
	return t
}

// generate renders per samples per class with jitter and translation.
func (d *ImageSet) generate(per int, r *tensor.RNG) []Sample {
	cfg := d.Cfg
	out := make([]Sample, 0, per*cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		tpl := d.templates[c]
		for k := 0; k < per; k++ {
			sy := r.Intn(2*cfg.Shift+1) - cfg.Shift
			sx := r.Intn(2*cfg.Shift+1) - cfg.Shift
			x := make([]float32, cfg.H*cfg.W)
			for y := 0; y < cfg.H; y++ {
				for xx := 0; xx < cfg.W; xx++ {
					ty, tx := y+sy, xx+sx
					var v float32
					if ty >= 0 && ty < cfg.H && tx >= 0 && tx < cfg.W {
						v = tpl.At(ty, tx)
					}
					x[y*cfg.W+xx] = v + float32(r.Norm()*cfg.Jitter)
				}
			}
			out = append(out, Sample{X: x, Y: c})
		}
	}
	return out
}

// Dim returns the flattened sample width H·W.
func (d *ImageSet) Dim() int { return d.Cfg.H * d.Cfg.W }
