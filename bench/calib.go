package main

import (
	"math"
	"slices"
	"time"
)

// The reference box is two vCPUs of a shared host whose speed changes by a
// factor of up to three from one second to the next (README.md, "Spread"):
// identical work, timed raw, spreads by 10–30 % between runs, wider than any
// bound the contract allows. What does repeat is the ratio between the work
// and a fixed reference kernel timed right beside it. So every load-
// generating goroutine carries a meter: every few milliseconds of work, at a
// boundary between operations, it times the kernel, and each piece of work
// between two such calibrations is scaled by how fast the kernel ran around
// it. The timing metrics are therefore in reference seconds: seconds on a
// box on which the kernel takes refKernelSeconds. The kernel, the meter and
// the constants below are the same on a parent commit and on a change, so
// the two compare.

// refKernelSeconds is the kernel's duration on the imaginary box the
// timings are reported for; the reference box's own typical speed (it runs
// the kernel in 75–260 µs).
const refKernelSeconds = 100e-6

// follow is the exponent with which the program's time follows the
// kernel's. What slows the box (a busy sibling thread, mostly) slows dense
// arithmetic the most and system calls and wake-ups the least: fitted over
// segments of identical work, a workload's time grew with the kernel's to
// the power of 1.0 (fleet-sync), 0.8 (fig1-cruda, serve-train), 0.7
// (robust-sim) and 0.5 (live-loopback). One exponent for all keeps every
// workload's spread under 5 % where 1 leaves live-loopback at 8 %
// (README.md, "Spread").
const follow = 0.8

// kernelRuns is how often one calibration times the kernel. A piece is
// scaled by the median of the runs before and after it, so one run that an
// interrupt or the host stretched does not move it.
const kernelRuns = 3

// kernel is the reference work: a 48×48 float32 multiply-accumulate that
// stays in the first-level cache and allocates nothing, so that it measures
// the core's speed and nothing of the program's.
type kernel struct{ a, b, c [48 * 48]float32 }

func (k *kernel) init() {
	for i := range k.a {
		k.a[i] = float32(i%7) * 0.125
		k.b[i] = float32(i%5) * 0.25
	}
}

func (k *kernel) run() {
	const n = 48
	a, b, c := &k.a, &k.b, &k.c
	for i := 0; i < n; i++ {
		for kk := 0; kk < n; kk++ {
			aik := a[i*n+kk]
			for j := 0; j < n; j++ {
				c[i*n+j] = c[i*n+j]*0.5 + aik*b[kk*n+j]
			}
		}
	}
}

// meter belongs to one goroutine. Between start and the last lap it splits
// that goroutine's time into pieces of work and calibrations, and sums the
// pieces as measured (raw) and scaled to the reference box (ref).
type meter struct {
	every time.Duration // work between two calibrations, at least
	tr    *track        // the owning goroutine's span buffer; nil when untraced
	k     kernel

	open [kernelRuns]float64 // kernel times of the calibration that opened the piece
	mark time.Time           // when the piece opened

	raw, ref float64 // seconds of work since start: measured, and on the reference box
	kern     float64 // seconds spent calibrating since start
}

func newMeter(every time.Duration, tr *track) *meter {
	m := &meter{every: every, tr: tr}
	m.k.init()
	return m
}

// calibrate times the kernel kernelRuns times.
func (m *meter) calibrate() (c [kernelRuns]float64) {
	sp := m.tr.begin("bench.calibrate")
	t := time.Now()
	for i := range c {
		m.k.run()
		now := time.Now()
		c[i] = now.Sub(t).Seconds()
		t = now
	}
	m.tr.end(sp)
	return c
}

// start zeroes the sums and opens the first piece.
func (m *meter) start() {
	m.raw, m.ref, m.kern = 0, 0, 0
	t0 := time.Now()
	m.open = m.calibrate()
	m.mark = time.Now()
	m.kern += m.mark.Sub(t0).Seconds()
}

// due reports whether the open piece is long enough to close.
func (m *meter) due() bool { return time.Since(m.mark) >= m.every }

// lap closes the open piece, calibrates and opens the next piece. It
// returns the factor that turns a time measured inside the closed piece
// into reference seconds.
func (m *meter) lap() float64 {
	t0 := time.Now()
	d := t0.Sub(m.mark).Seconds()
	after := m.calibrate()
	var around [2 * kernelRuns]float64
	copy(around[:], m.open[:])
	copy(around[kernelRuns:], after[:])
	slices.Sort(around[:])
	factor := math.Pow(refKernelSeconds/((around[kernelRuns-1]+around[kernelRuns])/2), follow)
	m.raw += d
	m.ref += d * factor
	m.open = after
	m.mark = time.Now()
	m.kern += m.mark.Sub(t0).Seconds()
	return factor
}

// lapScaled is lap for a goroutine that times its operations one by one:
// it appends to ref the entries of lat that ref does not have yet, which
// are the operations of the piece being closed, in reference seconds.
func (m *meter) lapScaled(lat, ref []float64) []float64 {
	f := m.lap()
	for _, d := range lat[len(ref):] {
		ref = append(ref, d*f)
	}
	return ref
}

// metered is what the meters of one timed region add up to.
type metered struct {
	wallRef  float64 // reference seconds of the goroutine that had the most
	slowdown float64 // measured seconds per reference second, over all meters
	kern     float64 // seconds all meters together spent calibrating
}

func sumMeters(ms []*meter) metered {
	var out metered
	var raw, ref float64
	for _, m := range ms {
		out.wallRef = max(out.wallRef, m.ref)
		out.kern += m.kern
		raw += m.raw
		ref += m.ref
	}
	out.slowdown = ratio(raw, ref)
	return out
}
