// Package simnet provides the virtual-time substrate the experiments run
// on: a deterministic discrete-event kernel and a fluid-flow model of the
// shared wireless channel between the robots.
//
// Gradient math in this repo is real, but compute and transmission consume
// *virtual* seconds, so a "60-minute" training run finishes in wall-clock
// seconds and is reproducible bit-for-bit given a seed.
package simnet

import (
	"container/heap"
	"math"
)

// Kernel is a deterministic discrete-event scheduler over virtual time
// (seconds as float64). Events at the same instant fire in scheduling order.
type Kernel struct {
	now float64
	pq  eventQueue
	seq int64
}

// Timer is a handle to a scheduled event; Stop cancels it.
type Timer struct {
	at        float64
	seq       int64
	fn        func()
	cancelled bool
	index     int // position in the kernel's queue; -1 when not queued
}

// Stop cancels the timer if it has not fired yet.
func (t *Timer) Stop() { t.cancelled = true }

type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *eventQueue) Push(x interface{}) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	t.index = -1
	return t
}

// NewKernel returns a kernel at time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t float64, fn func()) *Timer {
	tm := newTimer(fn)
	k.reset(tm, t)
	return tm
}

// newTimer returns an unarmed timer for fn.
func newTimer(fn func()) *Timer { return &Timer{fn: fn, index: -1} }

// reset re-arms tm — pending, stopped or fired — for absolute virtual time t,
// ordered among same-instant events as a fresh At would be. Only for the
// holder of tm's one handle (the channel's recheck): a stale Stop through
// another, meant for the earlier arming, would cancel this one.
func (k *Kernel) reset(tm *Timer, t float64) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	tm.at, tm.seq, tm.cancelled = t, k.seq, false
	if tm.index >= 0 {
		heap.Fix(&k.pq, tm.index)
	} else {
		heap.Push(&k.pq, tm)
	}
}

// After schedules fn d seconds from now (d < 0 is treated as 0).
func (k *Kernel) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Step fires the next pending event; it reports false when none remain.
func (k *Kernel) Step() bool {
	for k.pq.Len() > 0 {
		tm := heap.Pop(&k.pq).(*Timer)
		if tm.cancelled {
			continue
		}
		k.now = tm.at
		tm.fn()
		return true
	}
	return false
}

// RunUntilIdle fires all events until the queue is empty. maxEvents bounds
// runaway simulations; it panics if exceeded.
func (k *Kernel) RunUntilIdle(maxEvents int) {
	for i := 0; k.Step(); i++ {
		if i >= maxEvents {
			panic("simnet: RunUntilIdle exceeded event budget")
		}
	}
}

func (k *Kernel) peek() *Timer {
	for k.pq.Len() > 0 {
		if k.pq[0].cancelled {
			heap.Pop(&k.pq)
			continue
		}
		return k.pq[0]
	}
	return &Timer{at: math.Inf(1)}
}
