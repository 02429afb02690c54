// Package trace models the bandwidth of real-world robotic IoT links.
//
// The paper measured (Fig. 3) that between two moving robots on 802.11ac,
// a ≥20 % bandwidth fluctuation happens about every 0.4 s and a ≥40 % one
// about every 1.2 s, with outdoor runs frequently fading to ≈0 Mbps. Since
// the paper's own artifact replays recorded traces through `tc` on
// stationary devices, this package plays the same role: it synthesizes
// traces calibrated to those statistics (plus CSV record/replay for real
// traces) and exposes the statistics used to validate them.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rog/internal/tensor"
)

// Trace is a piecewise-constant bandwidth series in Mbps sampled every Dt
// seconds. Reads beyond the end wrap around, so a 5-minute trace can drive
// an arbitrarily long experiment, as in the paper's artifact replay.
type Trace struct {
	Dt      float64
	Samples []float64
}

// At returns the bandwidth in Mbps at time t (t ≥ 0), wrapping past the end.
func (tr *Trace) At(t float64) float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	idx := int(t/tr.Dt) % len(tr.Samples)
	if idx < 0 {
		idx = 0
	}
	return tr.Samples[idx]
}

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 { return float64(len(tr.Samples)) * tr.Dt }

// NextBoundary returns the earliest time strictly greater than t at which
// the bandwidth may change (the next sample edge).
func (tr *Trace) NextBoundary(t float64) float64 {
	idx := math.Floor(t/tr.Dt) + 1
	b := idx * tr.Dt
	// Guard against float rounding (e.g. 4.3/0.1 = 42.999…): the boundary
	// must be strictly in the future or the caller would spin in place.
	for b <= t {
		idx++
		b = idx * tr.Dt
	}
	return b
}

// Mean returns the average bandwidth.
func (tr *Trace) Mean() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range tr.Samples {
		s += v
	}
	return s / float64(len(tr.Samples))
}

// Min returns the smallest sample.
func (tr *Trace) Min() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	m := tr.Samples[0]
	for _, v := range tr.Samples {
		if v < m {
			m = v
		}
	}
	return m
}

// MeanFluctuationInterval returns the mean time between consecutive-sample
// relative changes of at least frac (e.g. 0.2 for the paper's "20 %
// fluctuation"). Returns +Inf if no such change occurs.
func (tr *Trace) MeanFluctuationInterval(frac float64) float64 {
	count := 0
	for i := 1; i < len(tr.Samples); i++ {
		prev := tr.Samples[i-1]
		if prev < 1e-9 {
			prev = 1e-9
		}
		if math.Abs(tr.Samples[i]-prev)/prev >= frac {
			count++
		}
	}
	if count == 0 {
		return math.Inf(1)
	}
	return tr.Duration() / float64(count)
}

// FractionBelow returns the fraction of samples strictly below thresh Mbps.
func (tr *Trace) FractionBelow(thresh float64) float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	n := 0
	for _, v := range tr.Samples {
		if v < thresh {
			n++
		}
	}
	return float64(n) / float64(len(tr.Samples))
}

// Env selects the measured environment profile from the paper.
type Env int

const (
	// Indoor is the laboratory profile: moderate instability, walls
	// reflect signals so deep fades are rare.
	Indoor Env = iota
	// Outdoor is the campus-garden profile: sharper fluctuation and
	// frequent fades toward 0 Mbps behind obstacles.
	Outdoor
)

// String names the environment.
func (e Env) String() string {
	if e == Outdoor {
		return "outdoor"
	}
	return "indoor"
}

// GenConfig parameterizes the synthetic trace generator. The defaults per
// environment are calibrated so the generated traces match the paper's
// Fig. 3 statistics; tests in this package pin that calibration.
type GenConfig struct {
	BaseMbps  float64 // long-run mean capacity
	SlowTau   float64 // OU time constant of the slow mobility component (s)
	SlowSigma float64 // stationary std of the slow component (log scale)
	JitterStd float64 // per-sample lognormal jitter (log scale)
	SpikeProb float64 // probability per sample of a heavy-tailed swing
	SpikeLow  float64 // swing multiplier lower bound
	SpikeHigh float64 // swing multiplier upper bound
	FadeRate  float64 // fade arrivals per second
	FadeMean  float64 // mean fade duration (s)
	FadeDepth float64 // multiplier during a fade
	// Occlusions are the long-timescale component: a robot drives behind a
	// wall or a line of trees and stays there for tens of seconds with a
	// persistently degraded link. These are what turn one robot into a
	// *persistent* straggler and make whole-model synchronization stall.
	OccRate float64 // occlusion arrivals per second
	OccMean float64 // mean occlusion duration (s)
	// OccLongFrac of occlusions instead draw their duration from an
	// exponential with mean OccLongMean — the robot that parks behind a
	// building for minutes. The heavy tail is what defeats fixed staleness
	// slack: any finite threshold eventually drains against it.
	OccLongFrac float64
	OccLongMean float64
	OccDepth    float64 // multiplier while occluded
	FloorMbps   float64 // hard lower bound
	CeilMbps    float64 // hard upper bound
	Dt          float64 // sample period (s)
}

// Config returns the calibrated generator configuration for an environment.
func (e Env) Config() GenConfig {
	cfg := GenConfig{
		BaseMbps:    130,
		SlowTau:     30,
		SlowSigma:   0.3,
		JitterStd:   0.16,
		SpikeProb:   0.10,
		SpikeLow:    0.45,
		SpikeHigh:   1.8,
		FadeRate:    1.0 / 40.0,
		FadeMean:    1.5,
		FadeDepth:   0.15,
		OccRate:     1.0 / 90.0,
		OccMean:     8,
		OccLongFrac: 0.15,
		OccLongMean: 30,
		OccDepth:    0.35,
		FloorMbps:   0.5,
		CeilMbps:    300,
		Dt:          0.1,
	}
	if e == Outdoor {
		cfg.BaseMbps = 95
		// Slow mobility component: persistent minutes-scale 2–5×
		// asymmetry between robots (distance, partial occlusion). This is
		// what no fixed staleness slack can absorb.
		cfg.SlowTau = 60
		cfg.SlowSigma = 0.5
		cfg.JitterStd = 0.12
		cfg.SpikeProb = 0.05
		cfg.SpikeLow = 0.3
		cfg.FadeRate = 1.0 / 8.0
		cfg.FadeMean = 2.0
		cfg.FadeDepth = 0.05
		cfg.OccRate = 1.0 / 45.0
		cfg.OccMean = 8
		cfg.OccLongFrac = 0.4
		cfg.OccLongMean = 90
		cfg.OccDepth = 0.05
		cfg.FloorMbps = 0.1
	}
	return cfg
}

// Generate synthesizes a trace of the given duration (seconds).
//
// The model is multiplicative with three time scales, matching the physical
// story in the paper: a slow Ornstein-Uhlenbeck component for mobility and
// distance, per-sample heavy-tailed jitter for multipath, and an on/off fade
// process for occlusion.
func Generate(cfg GenConfig, duration float64, seed uint64) *Trace {
	r := tensor.NewRNG(seed)
	n := int(duration / cfg.Dt)
	out := &Trace{Dt: cfg.Dt, Samples: make([]float64, n)}

	slow := 0.0 // log-scale OU state
	alpha := cfg.Dt / cfg.SlowTau
	ouNoise := cfg.SlowSigma * math.Sqrt(2*alpha)

	fadeLeft := 0.0
	occLeft := 0.0
	for i := 0; i < n; i++ {
		slow += -alpha*slow + ouNoise*r.Norm()

		jitter := math.Exp(r.Norm() * cfg.JitterStd)
		if r.Float64() < cfg.SpikeProb {
			jitter *= cfg.SpikeLow + (cfg.SpikeHigh-cfg.SpikeLow)*r.Float64()
		}

		if fadeLeft <= 0 && r.Float64() < cfg.FadeRate*cfg.Dt {
			// Exponentially distributed fade duration.
			fadeLeft = -cfg.FadeMean * math.Log(1-r.Float64())
		}
		fade := 1.0
		if fadeLeft > 0 {
			fade = cfg.FadeDepth
			fadeLeft -= cfg.Dt
		}

		if occLeft <= 0 && cfg.OccRate > 0 && r.Float64() < cfg.OccRate*cfg.Dt {
			mean := cfg.OccMean
			if r.Float64() < cfg.OccLongFrac {
				mean = cfg.OccLongMean
			}
			occLeft = -mean * math.Log(1-r.Float64())
		}
		occ := 1.0
		if occLeft > 0 {
			occ = cfg.OccDepth
			occLeft -= cfg.Dt
		}

		b := cfg.BaseMbps * math.Exp(slow) * jitter * fade * occ
		if b < cfg.FloorMbps {
			b = cfg.FloorMbps
		}
		if b > cfg.CeilMbps {
			b = cfg.CeilMbps
		}
		out.Samples[i] = b
	}
	return out
}

// GenerateEnv synthesizes a trace with the calibrated profile of env.
func GenerateEnv(env Env, duration float64, seed uint64) *Trace {
	return Generate(env.Config(), duration, seed)
}

// Constant returns a flat trace, useful for tests and for modelling ideal
// networks.
func Constant(mbps, duration, dt float64) *Trace {
	n := int(duration / dt)
	tr := &Trace{Dt: dt, Samples: make([]float64, n)}
	for i := range tr.Samples {
		tr.Samples[i] = mbps
	}
	return tr
}

// Sparkline renders the trace as a fixed-width line of block glyphs, each
// column the mean of its time bucket scaled to the trace maximum — a quick
// terminal look at Fig. 3-style instability.
func (tr *Trace) Sparkline(width int) string {
	if width <= 0 || len(tr.Samples) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range tr.Samples {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	out := make([]rune, width)
	per := float64(len(tr.Samples)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(tr.Samples) {
			hi = len(tr.Samples)
		}
		var s float64
		for _, v := range tr.Samples[lo:hi] {
			s += v
		}
		mean := s / float64(hi-lo)
		idx := int(mean / max * float64(len(glyphs)))
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		out[i] = glyphs[idx]
	}
	return string(out)
}

// WriteCSV streams the trace as "time,mbps" rows.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, v := range tr.Samples {
		if _, err := fmt.Fprintf(bw, "%.3f,%.4f\n", float64(i)*tr.Dt, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (or recorded externally in the
// same format): "time,mbps" rows. The sample period is inferred from the
// first two timestamps; a single-row trace defaults to 0.1 s.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var times, vals []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields (time,mbps), got %d", line, len(parts))
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", line, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad bandwidth: %w", line, err)
		}
		times = append(times, ts)
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	dt := 0.1
	if len(times) > 1 {
		dt = times[1] - times[0]
		if dt <= 0 {
			return nil, fmt.Errorf("trace: non-increasing timestamps")
		}
	}
	return &Trace{Dt: dt, Samples: vals}, nil
}
