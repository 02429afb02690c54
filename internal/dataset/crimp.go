package dataset

import (
	"math"

	"rog/internal/tensor"
)

// Scene is a synthetic 2-D environment: a smooth occupancy field in
// [-1,1]² built from random soft discs and walls. It is the ground truth the
// CRIMP implicit map learns, playing the role of the ScanNet apartment.
type Scene struct {
	discs []disc
	walls []wall
}

type disc struct {
	cx, cy, r, sign float64
}

type wall struct {
	// Soft band around the line segment (x1,y1)-(x2,y2).
	x1, y1, x2, y2, half float64
}

// NewScene synthesizes a scene with the given number of features.
func NewScene(nDiscs, nWalls int, seed uint64) *Scene {
	r := tensor.NewRNG(seed)
	s := &Scene{}
	for i := 0; i < nDiscs; i++ {
		sign := 1.0
		if r.Float64() < 0.4 {
			sign = -1
		}
		s.discs = append(s.discs, disc{
			cx:   2*r.Float64() - 1,
			cy:   2*r.Float64() - 1,
			r:    0.1 + 0.25*r.Float64(),
			sign: sign,
		})
	}
	for i := 0; i < nWalls; i++ {
		x := 2*r.Float64() - 1
		y := 2*r.Float64() - 1
		dx := (2*r.Float64() - 1) * 0.8
		dy := (2*r.Float64() - 1) * 0.8
		s.walls = append(s.walls, wall{x1: x, y1: y, x2: x + dx, y2: y + dy, half: 0.03 + 0.05*r.Float64()})
	}
	return s
}

// At returns the occupancy value in [-1, 1] at position (x, y).
func (s *Scene) At(x, y float64) float64 {
	v := -0.6 // free space bias
	for _, d := range s.discs {
		dist := math.Hypot(x-d.cx, y-d.cy)
		// Smooth bump: contributes sign * falloff.
		v += d.sign * 1.4 / (1 + math.Pow(dist/d.r, 4))
	}
	for _, w := range s.walls {
		v += 1.2 / (1 + math.Pow(w.dist(x, y)/w.half, 4))
	}
	return clamp(v, -1, 1)
}

func (w wall) dist(x, y float64) float64 {
	vx, vy := w.x2-w.x1, w.y2-w.y1
	wx, wy := x-w.x1, y-w.y1
	c1 := vx*wx + vy*wy
	if c1 <= 0 {
		return math.Hypot(x-w.x1, y-w.y1)
	}
	c2 := vx*vx + vy*vy
	if c2 <= c1 {
		return math.Hypot(x-w.x2, y-w.y2)
	}
	t := c1 / c2
	return math.Hypot(x-(w.x1+t*vx), y-(w.y1+t*vy))
}

// Observation is what a robot at a pose sees: occupancy sampled at fixed
// body-frame offsets (a stand-in for a depth image).
type Observation struct {
	Pose   [2]float64 // ground-truth position
	Points *tensor.Matrix
	Values *tensor.Matrix
}

// CRIMPConfig controls trajectory and observation synthesis.
type CRIMPConfig struct {
	Scene       *Scene
	RaysPerObs  int     // samples per observation
	SensorNoise float64 // additive noise on observed values
	Seed        uint64
}

// Trajectory generates n observations along a smooth random walk, the
// "short sequence of continuous images" of the paper. The first observation
// starts at the shared origin (the fixed shared image of the paper).
func Trajectory(cfg CRIMPConfig, n int) []Observation {
	r := tensor.NewRNG(cfg.Seed)
	obs := make([]Observation, 0, n)
	x, y := 0.0, 0.0
	heading := r.Float64() * 6.28318
	for i := 0; i < n; i++ {
		obs = append(obs, observe(cfg, r, x, y))
		heading += (r.Float64() - 0.5) * 0.9
		step := 0.04 + 0.04*r.Float64()
		x = clamp(x+step*math.Cos(heading), -0.95, 0.95)
		y = clamp(y+step*math.Sin(heading), -0.95, 0.95)
	}
	return obs
}

func observe(cfg CRIMPConfig, r *tensor.RNG, px, py float64) Observation {
	pts := tensor.New(cfg.RaysPerObs, 2)
	vals := tensor.New(cfg.RaysPerObs, 1)
	for k := 0; k < cfg.RaysPerObs; k++ {
		// Sample points within sensing radius of the pose.
		ang := r.Float64() * 6.28318
		rad := r.Float64() * 0.35
		sx := clamp(px+rad*math.Cos(ang), -1, 1)
		sy := clamp(py+rad*math.Sin(ang), -1, 1)
		pts.Set(k, 0, float32(sx))
		pts.Set(k, 1, float32(sy))
		vals.Set(k, 0, float32(clamp(cfg.Scene.At(sx, sy)+r.Norm()*cfg.SensorNoise, -1, 1)))
	}
	return Observation{Pose: [2]float64{px, py}, Points: pts, Values: vals}
}

// MapBatch fills a training batch of (coordinate → value) pairs for the
// implicit map from a set of observations: x.Rows pairs, coordinates into x
// (x.Rows×2) and values into y (x.Rows×1), both the caller's.
func MapBatch(x, y *tensor.Matrix, obs []Observation, r *tensor.RNG) {
	for i := 0; i < x.Rows; i++ {
		o := obs[r.Intn(len(obs))]
		k := r.Intn(o.Points.Rows)
		copy(x.Row(i), o.Points.Row(k))
		y.Set(i, 0, o.Values.At(k, 0))
	}
}

// MapField is any learned field that can be evaluated at batched 2-D
// coordinates; satisfied by *nn.Sequential via an adapter in the caller.
type MapField interface {
	Eval(pts *tensor.Matrix) *tensor.Matrix
}

// LocalizeConfig controls pose localization against a learned map. The
// solver is a derivative-free pattern search: at each step it probes the
// four axis neighbours at the current step size, moves to the best if it
// improves the photometric loss, and shrinks the step otherwise. This is
// robust to the spiky loss landscapes implicit maps produce, where plain
// finite-difference gradient descent diverges.
type LocalizeConfig struct {
	Steps     int     // pattern-search iterations
	InitStep  float64 // initial probe step size
	Shrink    float64 // step multiplier when no neighbour improves
	InitError float64 // magnitude of the initial pose perturbation
}

// DefaultLocalizeConfig returns the settings used by the experiments.
func DefaultLocalizeConfig() LocalizeConfig {
	return LocalizeConfig{Steps: 30, InitStep: 0.1, Shrink: 0.6, InitError: 0.25}
}

// TrajectoryError measures positioning quality: for each observation, start
// from a perturbed pose and descend the photometric error against the
// learned map; return the mean final distance to the true pose. This mirrors
// the paper's trajectory-error metric (predicted vs ground-truth positions).
func TrajectoryError(field MapField, obs []Observation, cfg LocalizeConfig, seed uint64) float64 {
	if len(obs) == 0 {
		return 0
	}
	r := tensor.NewRNG(seed)
	var total float64
	for _, o := range obs {
		ang := r.Float64() * 6.28318
		ex := cfg.InitError * math.Cos(ang)
		ey := cfg.InitError * math.Sin(ang)
		px, py := o.Pose[0]+ex, o.Pose[1]+ey

		// Body-frame offsets of the observation's sample points.
		n := o.Points.Rows
		off := make([][2]float64, n)
		pts := tensor.New(n, 2) // field.Eval's input, refilled by every probe
		for k := 0; k < n; k++ {
			off[k][0] = float64(o.Points.At(k, 0)) - o.Pose[0]
			off[k][1] = float64(o.Points.At(k, 1)) - o.Pose[1]
		}
		loss := func(cx, cy float64) float64 {
			for k := 0; k < n; k++ {
				pts.Set(k, 0, float32(clamp(cx+off[k][0], -1, 1)))
				pts.Set(k, 1, float32(clamp(cy+off[k][1], -1, 1)))
			}
			pred := field.Eval(pts)
			var l float64
			for k := 0; k < n; k++ {
				d := float64(pred.At(k, 0)) - float64(o.Values.At(k, 0))
				l += d * d
			}
			return l / float64(n)
		}
		h := cfg.InitStep
		cur := loss(px, py)
		for s := 0; s < cfg.Steps; s++ {
			bestX, bestY, bestL := px, py, cur
			for _, cand := range [4][2]float64{{h, 0}, {-h, 0}, {0, h}, {0, -h}} {
				cx := clamp(px+cand[0], -1, 1)
				cy := clamp(py+cand[1], -1, 1)
				if l := loss(cx, cy); l < bestL {
					bestX, bestY, bestL = cx, cy, l
				}
			}
			if bestL < cur {
				px, py, cur = bestX, bestY, bestL
			} else {
				h *= cfg.Shrink
			}
		}
		total += math.Hypot(px-o.Pose[0], py-o.Pose[1])
	}
	return total / float64(len(obs))
}

// clamp limits x to [lo, hi], returning x itself whenever it compares
// inside: against a zero bound, max and min would order −0 below +0.
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
