package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tally counts operations attempted and failed; every correctness check
// and every operation that can error goes through it, so a violation shows
// as failed > 0 and a non-zero exit.
type tally struct {
	attempted, failed int
	notes             []string
}

// check counts one attempted operation and, if ok is false, one failure
// with the reason.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

// ops counts n operations that completed without error.
func (t *tally) ops(n int) { t.attempted += n }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation; 0 when xs
// is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0 (an absent layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// region is what one timed region cost the process.
type region struct {
	wall, cpu  float64 // seconds; reference seconds once runPass has scaled them
	slowdown   float64 // measured seconds per reference second
	allocBytes float64
	mallocs    float64
}

// measure runs fn as one timed region. The collection before it keeps one
// region's garbage from being billed to the next.
func measure(fn func() error) (region, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return region{
		wall:       wall,
		cpu:        c1 - c0,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
	}, err
}

var errWatchdog = errors.New("watchdog deadline expired")

// watchdog runs fn and returns its error, or errWatchdog once limit has
// passed. On expiry it calls cancel (which should unblock fn, e.g. by
// closing its connections) and gives fn one more second to return; a fn
// that still has not returned is abandoned — the caller stops measuring
// and the process exits non-zero, which ends the stuck goroutine.
func watchdog(limit time.Duration, cancel func(), fn func() error) error {
	done := make(chan error, 1) // one send, never blocks the goroutine
	go func() { done <- fn() }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
	}
	if cancel != nil {
		cancel()
	}
	grace := time.NewTimer(time.Second)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
	}
	return errWatchdog
}
