package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic integer.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is an accumulating atomic float (CAS on the bit pattern).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates d.
func (c *FloatCounter) Add(d float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the accumulated sum.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-value-wins atomic float.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bound bucket histogram with atomic counts. A value
// v lands in the first bucket whose upper bound is >= v; values above the
// last bound land in the overflow bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1: the last entry is the overflow
	sum    FloatCounter
	n      atomic.Int64
}

// NewHistogram builds a histogram over the given (ascending) upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// snapshot freezes the histogram, quantiles filled.
func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Value(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	hs.fillQuantiles()
	return hs
}

// HistSnapshot is a histogram's frozen state. P50/P95/P99 are the
// interpolated quantile estimates (see Quantile), filled by
// Registry.Snapshot so a snapshot's reader gets them directly.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; the last is overflow
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Mean returns the average observed value (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// inside the bucket holding the q-th observation. The first bucket's lower
// edge is taken as 0 (every histogram here observes non-negative values);
// observations in the overflow bucket report the last bound — the
// histogram cannot see past it.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// fillQuantiles stamps the standard quantile estimates.
func (h *HistSnapshot) fillQuantiles() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// Registry is a named collection of counters, float counters, gauges and
// histograms, created on first use and safe for concurrent access. The
// zero-cost disabled configuration is a nil *Registry on the probe, not an
// empty registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.floats[name]
	if !ok {
		c = &FloatCounter{}
		r.floats[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on first
// use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a registry's frozen state; encoding/json renders map keys
// sorted, so serialized snapshots are deterministic.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Floats     map[string]float64      `json:"floats"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot freezes every metric. Safe on a nil registry (returns empty
// maps), so a metrics-less runtime snapshots to empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Floats:     make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, c := range r.floats {
		s.Floats[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
