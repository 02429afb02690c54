// Package simnet provides the virtual-time substrate the experiments run
// on: a deterministic discrete-event kernel and a fluid-flow model of the
// shared wireless channel between the robots.
//
// Gradient math in this repo is real, but compute and transmission consume
// *virtual* seconds, so a "60-minute" training run finishes in wall-clock
// seconds and is reproducible bit-for-bit given a seed.
package simnet

import "container/heap"

// Kernel is a deterministic discrete-event scheduler over virtual time
// (seconds as float64). Events at the same instant fire in scheduling order.
type Kernel struct {
	now float64
	pq  eventQueue
	seq int64
	// pending lists the channels that asked during this event for their
	// recheck to be re-armed (Channel.schedule); Step arms each once before
	// it pops. Their order does not matter: each arms at the sequence number
	// it reserved.
	pending []*Channel
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
	k.arm(tm, t, k.reserve())
	return tm
}

// newTimer returns an unarmed timer for fn.
func newTimer(fn func()) *Timer { return &Timer{fn: fn, index: -1} }

// reserve takes the next sequence number: the place among same-instant
// events of a timer armed now, or later with it (a channel's recheck).
func (k *Kernel) reserve() int64 {
	k.seq++
	return k.seq
}

// arm (re-)queues tm — pending, stopped or fired — for absolute virtual time
// t at sequence number seq. Only for the holder of tm's one handle (the
// channel's recheck): a stale Stop through another, meant for the earlier
// arming, would cancel this one.
func (k *Kernel) arm(tm *Timer, t float64, seq int64) {
	if t < k.now {
		t = k.now
	}
	tm.at, tm.seq, tm.cancelled = t, seq, false
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
// The channels' rechecks asked for since the last event are armed first.
func (k *Kernel) Step() bool {
	for i, c := range k.pending {
		c.arm()
		k.pending[i] = nil
	}
	k.pending = k.pending[:0]
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
