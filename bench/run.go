package main

import (
	"fmt"
	"slices"
	"time"
)

// sizes fixes how much work each workload does. They are constants of the
// benchmark: identical on a parent commit and a change, and not derived
// from the machine. full is what BENCHMARK.json measures; smoke is the
// same code at a size the tests can afford.
type sizes struct {
	simScale     float64 // share of harness.Quick's virtual horizon and pretraining
	fleetSeconds float64 // virtual seconds per fleet cell
	fleetCells   []fleetCell
	liveWarmup   int           // iterations per worker before the first segment
	liveIters    int           // iterations per worker per segment
	serveWarmup  int           // requests per client before the first segment
	serveReqs    int           // requests per client per segment
	layerBatch   time.Duration // length of one timed batch of a layer driver
	layerRounds  int           // batches per layer driver; the fastest counts
	obsRounds    int           // runs per variant of the obs overhead drivers
	setupSpan    time.Duration // set-ups repeat (three at least) until they add up to this
}

var fullSize = sizes{
	simScale:     0.5,
	fleetSeconds: 300,
	fleetCells:   []fleetCell{{64, 1, 0}, {64, 8, 0}, {128, 8, 2}, {256, 8, 4}},
	liveWarmup:   200,
	liveIters:    500,
	serveWarmup:  3000,
	serveReqs:    12500,
	layerBatch:   10 * time.Millisecond,
	layerRounds:  5,
	obsRounds:    3,
	setupSpan:    1500 * time.Millisecond,
}

var smokeSize = sizes{
	simScale:     0.08,
	fleetSeconds: 30,
	fleetCells:   []fleetCell{{8, 1, 0}, {8, 4, 0}, {12, 4, 2}},
	liveWarmup:   10,
	liveIters:    40,
	serveWarmup:  100,
	serveReqs:    300,
	layerBatch:   200 * time.Microsecond,
	layerRounds:  2,
	obsRounds:    1,
	setupSpan:    100 * time.Millisecond,
}

// instance is one set-up copy of a workload: its inputs are generated, its
// listeners and connections are open, and segment can be called repeatedly.
type instance interface {
	// warmup runs untimed work so caches fill and lazy set-up finishes.
	warmup() error
	// segment runs the workload's fixed unit of work once. It returns the
	// operations completed and the time of each timed operation, in
	// reference seconds (calib.go).
	segment() (ops float64, lat []float64, err error)
	// meters are the meters of the goroutines that ran the last segment.
	meters() []*meter
	// cancel unblocks a segment the watchdog gave up on.
	cancel()
	// close tears down every goroutine and socket the instance started.
	close() error
	// verify runs the correctness checks that need the finished pass.
	verify(t *tally)
	// fingerprint is the deterministic outcome of the last segment, one
	// string per system; nil when the workload has no such outcome. Two
	// segments of one seed must agree, traced or not.
	fingerprint() []string
	// layers adds the workload's own traced metrics to out.
	layers(out map[string]float64, p *pass, t *tally)
}

// workloadDef names one workload; the table is in main.go.
type workloadDef struct {
	name string
	// expect is the wall time of one full-size segment on the reference
	// box; the watchdog allows five times it.
	expect time.Duration
	setup  func(seed uint64, sz *sizes, rec *recorder) (instance, error)
}

// pass is everything one untraced or traced pass over a workload measured.
type pass struct {
	setups []float64 // reference seconds per set-up
	segs   []region
	ops    []float64 // operations per segment
	lat    []float64 // reference seconds per timed operation, pooled over segments
	inst   instance
	rec    *recorder
}

func (p *pass) walls() []float64 {
	w := make([]float64, len(p.segs))
	for i, s := range p.segs {
		w[i] = s.wall
	}
	return w
}

// slowdowns is, per segment, how many seconds the box took per reference
// second: what dividing by it took out of the timings.
func (p *pass) slowdowns() []float64 {
	w := make([]float64, len(p.segs))
	for i, s := range p.segs {
		w[i] = s.slowdown
	}
	return w
}

// runPass sets the workload up (several times, for a steady setup_s),
// warms it, then runs whole segments until seconds have passed. rec is nil
// for the untraced pass. Failures land in t; the pass is still returned so
// that what was measured can be reported.
func runPass(def *workloadDef, seed uint64, seconds float64, sz *sizes, rec *recorder, t *tally) *pass {
	// The sample buffer is sized once: a harness whose heap grew with every
	// segment would make the collector run less often as the run went on,
	// and later segments would look faster than earlier ones.
	p := &pass{rec: rec, lat: make([]float64, 0, 1<<20)}
	var spent time.Duration
	sm := newMeter(0, nil) // a set-up is one piece
	for {
		t0 := time.Now()
		sm.start()
		inst, err := def.setup(seed, sz, rec)
		sm.lap()
		d := time.Since(t0)
		if err != nil {
			t.check(false, "%s: set-up: %v", def.name, err)
			return p
		}
		p.setups = append(p.setups, sm.ref)
		spent += d
		// At least three set-ups and at least sz.setupSpan of them: the
		// median of ten 0.1 s set-ups is steadier than the median of three.
		if n := len(p.setups); n >= 100 || (n >= 3 && spent >= sz.setupSpan) {
			p.inst = inst
			break
		}
		if err := inst.close(); err != nil {
			t.check(false, "%s: tear-down: %v", def.name, err)
		}
	}
	limit := 5 * def.expect
	if err := watchdog(limit, p.inst.cancel, p.inst.warmup); err != nil {
		t.check(false, "%s: warm-up: %v", def.name, err)
		return p
	}
	var first []string
	start := time.Now()
	for len(p.segs) == 0 || time.Since(start).Seconds() < seconds {
		var ops float64
		var lat []float64
		reg, err := measure(func() error {
			return watchdog(limit, p.inst.cancel, func() error {
				var err error
				ops, lat, err = p.inst.segment()
				return err
			})
		})
		if err != nil {
			t.check(false, "%s: segment %d: %v", def.name, len(p.segs), err)
			return p // a failed segment leaves the instance in no state to continue
		}
		// The region's times become reference seconds: the wall time is
		// that of the goroutine with the most work, calibrations left out;
		// the CPU time, which the process has one count of, is scaled by the
		// segment's mean slowdown.
		mt := sumMeters(p.inst.meters())
		reg.slowdown = mt.slowdown
		reg.wall = mt.wallRef
		reg.cpu = ratio(reg.cpu-mt.kern, mt.slowdown)
		p.segs = append(p.segs, reg)
		p.ops = append(p.ops, ops)
		p.lat = append(p.lat, lat...)
		t.ops(len(lat))
		if fp := p.inst.fingerprint(); first == nil {
			first = fp
		} else {
			t.check(slices.Equal(first, fp), "%s: segment %d is not a bit-identical repeat of segment 0", def.name, len(p.segs)-1)
		}
	}
	if err := p.inst.close(); err != nil {
		t.check(false, "%s: tear-down: %v", def.name, err)
	}
	p.inst.verify(t)
	return p
}

// endToEnd computes the end-to-end metrics of an untraced pass. Each is a
// median over the pass's segments (set-ups for setup_s), so one disturbed
// segment does not move it.
func endToEnd(p *pass) map[string]float64 {
	var rate, cpu, alloc, mallocs []float64
	for i, s := range p.segs {
		rate = append(rate, ratio(p.ops[i], s.wall))
		cpu = append(cpu, s.cpu)
		alloc = append(alloc, s.allocBytes/1e6)
		mallocs = append(mallocs, s.mallocs)
	}
	return map[string]float64{
		"setup_s":   median(p.setups),
		"wall_s":    median(p.walls()),
		"ops_per_s": median(rate),
		"op_p50_ms": 1e3 * median(p.lat),
		"cpu_s":     median(cpu),
		"alloc_mb":  median(alloc),
		"mallocs":   median(mallocs),
	}
}

// tracedPasses runs the untraced and the traced pass of one workload back
// to back, each for half of seconds, and adds the workload's per-layer
// metrics to out. Metrics that do not apply to the workload stay absent.
func tracedPasses(out map[string]float64, def *workloadDef, seed uint64, seconds float64, sz *sizes, t *tally, spansPath string) error {
	u := runPass(def, seed, seconds/2, sz, nil, t)
	rec := newRecorder()
	tr := runPass(def, seed, seconds/2, sz, rec, t)
	if len(u.segs) > 0 && len(tr.segs) > 0 {
		// The tracing decorators must not change what the program computes.
		if fu := u.inst.fingerprint(); fu != nil {
			t.check(slices.Equal(fu, tr.inst.fingerprint()), "%s: traced pass differs from untraced pass", def.name)
		}
		out["trace_overhead_frac"] = ratio(median(tr.walls()), median(u.walls())) - 1
		tr.inst.layers(out, tr, t)
	}
	out["trace.spans"] = float64(rec.numSpans())
	if spansPath != "" {
		if err := rec.writeChrome(spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
