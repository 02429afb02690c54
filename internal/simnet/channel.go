package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rog/internal/trace"
)

// Channel is a fluid-flow model of the robots' shared wireless medium.
//
// Each device d has a link-quality trace giving the capacity its radio
// could achieve alone (Mbps). Because all devices share one 802.11 channel
// (the paper's hotspot setup), airtime is divided equally among active
// flows: with k concurrent flows, a flow on device d progresses at
// linkCapacity(d, t)/k. This reproduces both per-link fading and the
// contention that grows with worker count (Sec. VI-C).
//
// Flows are drained continuously; the channel recomputes rates at every
// flow arrival/finish/cancel and at every trace sample boundary, so byte
// integrals are exact for piecewise-constant traces. The recheck timer is
// armed once per event however many changes the event made (schedule,
// Kernel.Step), and the flows' rates once per (time, lit) pair.
//
// Determinism: the active flows are kept in start order, and that order is
// part of the contract — flows that drain at the same instant complete by
// device index, and within one device in the order they were started.
type Channel struct {
	k     *Kernel
	links []*trace.Trace
	scale float64 // see Scale; fixed at construction, so no cached rate depends on it

	flows []*Flow // active, in start order
	// lit counts the flows competing for airtime (a flow on a dark link does
	// not), kept in step with flows, down and serverDown.
	lit        int
	lastUpdate float64
	recheck    *Timer  // the channel's one timer and its only handle: re-armed in place
	finished   []*Flow // onRecheck's scratch
	// The last schedule's view, which arm works from: the sequence number it
	// reserved, lit, and how many flows were listed. Between a schedule and
	// the end of its event the flows change only by zero-byte starts, which
	// append without a schedule (a zero-byte completion, which removes one
	// without a schedule, is the first thing its own event does), so the
	// flows that schedule saw are flows[:armFlows].
	pending          bool // on the kernel's pending list
	armSeq           int64
	armLit, armFlows int
	// Every listed flow's rate is bytesPerSec at time rateAt with rateLit
	// flows lit; rateAt is NaN when the rates are stale (see rates).
	rateAt  float64
	rateLit int
	// down marks links in blackout (capacity forced to 0 Mbps), the
	// fault-injection model of a robot driving behind a thick wall or out
	// of range. Flows on a downed link stall in place and resume when the
	// link comes back.
	down []bool
	// serverDown marks the server at the far end of every link dead. It is a
	// state of its own: a restart cannot end a blackout early, and a blackout
	// lifting cannot reach a dead server.
	serverDown bool
	// samples caches each device's last trace read (solo).
	samples []sample
}

// sample is a link's trace value At(t) and the raw sample index int(t/Dt)
// it was read at — all of t that At depends on.
type sample struct {
	idx  int
	mbps float64
	ok   bool
}

// Flow is one in-flight transmission.
type Flow struct {
	// Device is the index of the wireless link the flow rides on (the
	// non-AP endpoint: pushes and pulls for worker w both traverse w's
	// radio link).
	Device     int
	remaining  float64 // bytes
	sent       float64 // bytes
	onComplete func()
	active     bool // in the channel's flow list
	done       bool
	cancelled  bool
	rate       float64 // bytes/s at the channel's (rateAt, rateLit); see Channel.rates
}

// Sent returns the bytes fully delivered so far (advanced lazily; callers
// inside channel callbacks see up-to-date values).
func (f *Flow) Sent() float64 { return f.sent }

// Done reports whether the flow completed (not cancelled).
func (f *Flow) Done() bool { return f.done }

// NewChannel creates a shared channel over the given per-device link
// traces. scale multiplies all capacities (1 = use traces as-is).
func NewChannel(k *Kernel, links []*trace.Trace, scale float64) *Channel {
	if scale <= 0 {
		panic("simnet: non-positive channel scale")
	}
	c := &Channel{
		k:          k,
		links:      links,
		scale:      scale,
		lastUpdate: k.Now(),
		rateAt:     math.NaN(),
		down:       make([]bool, len(links)),
		samples:    make([]sample, len(links)),
	}
	c.recheck = newTimer(c.onRecheck)
	return c
}

// Scale multiplies all link capacities; experiments use it to keep the
// comm:compute ratio of the paper while using a smaller model.
func (c *Channel) Scale() float64 { return c.scale }

// bytesPerSec returns the current drain rate of flow f given n contending
// flows.
func (c *Channel) bytesPerSec(f *Flow, at float64, n int) float64 {
	if n == 0 || c.dark(f.Device) {
		return 0
	}
	mbps := c.solo(f.Device, at) * c.scale / float64(n)
	return mbps * 1e6 / 8
}

// rates sets every listed flow's rate to bytesPerSec(f, at, n), unless the
// rates already hold for (at, n): an event's advance reuses the rates the
// previous event's arm computed at the same time and lit, and its arm the
// ones its completion scan computed. The other inputs are the links'
// darkness, on whose change relight marks the rates stale, and the scale,
// which never changes; a new flow gets its rate at the rates' (at, n).
func (c *Channel) rates(at float64, n int) {
	if at == c.rateAt && n == c.rateLit {
		return
	}
	for _, f := range c.flows {
		f.rate = c.bytesPerSec(f, at, n)
	}
	c.rateAt, c.rateLit = at, n
}

// solo is links[device].At(t), read from the trace once per sample: the
// channel's per-flow loops ask for every flow at every event, and At's
// modulo and its load from a long sample slice were the fleet simulator's
// top row. The key is At's own index, so the value is At's bit for bit,
// rounding included.
func (c *Channel) solo(device int, t float64) float64 {
	tr, s := c.links[device], &c.samples[device]
	if idx := int(t / tr.Dt); !s.ok || idx != s.idx {
		*s = sample{idx: idx, mbps: tr.At(t), ok: true}
	}
	return s.mbps
}

// dark reports whether nothing can drain on the device's link: it is blacked
// out, or the server at its far end is down.
func (c *Channel) dark(device int) bool { return c.serverDown || c.down[device] }

// relight recounts lit after a link or the server changed state, and marks
// the rates stale: the same lit can now mean other links.
func (c *Channel) relight() {
	c.lit, c.rateAt = 0, math.NaN()
	for _, f := range c.flows {
		if !c.dark(f.Device) {
			c.lit++
		}
	}
}

// advance drains all active flows from lastUpdate to now using the rates
// that held over that interval (callers guarantee no trace boundary or
// flow event lies strictly inside it).
func (c *Channel) advance(now float64) {
	dt := now - c.lastUpdate
	if dt <= 0 {
		c.lastUpdate = now
		return
	}
	c.rates(c.lastUpdate, c.lit)
	for _, f := range c.flows {
		drained := f.rate * dt
		if drained > f.remaining {
			drained = f.remaining
		}
		f.remaining -= drained
		f.sent += drained
	}
	c.lastUpdate = now
}

// StartFlow begins transmitting `bytes` on device's link; onComplete fires
// (in virtual time) when the last byte is delivered.
func (c *Channel) StartFlow(device int, bytes float64, onComplete func()) *Flow {
	if device < 0 || device >= len(c.links) {
		panic(fmt.Sprintf("simnet: device %d out of range", device))
	}
	if bytes < 0 {
		panic("simnet: negative flow size")
	}
	c.advance(c.k.Now())
	f := &Flow{Device: device, remaining: bytes, onComplete: onComplete, active: true}
	if !math.IsNaN(c.rateAt) {
		f.rate = c.bytesPerSec(f, c.rateAt, c.rateLit)
	}
	c.flows = append(c.flows, f)
	if !c.dark(device) {
		c.lit++
	}
	if bytes == 0 {
		// Complete immediately but asynchronously, preserving event order.
		c.k.After(0, func() { c.finish(f) })
		return f
	}
	c.schedule()
	return f
}

// Cancel aborts the flow and returns the bytes delivered before the abort
// (the paper's speculative transmission discards the in-flight row; the
// caller decides what the delivered bytes amount to).
func (c *Channel) Cancel(f *Flow) float64 {
	c.advance(c.k.Now())
	if c.remove(f) {
		f.cancelled = true
		c.schedule()
	}
	return f.sent
}

// remove takes f out of the flow list, keeping the others in start order;
// false when it already left (completed or cancelled).
func (c *Channel) remove(f *Flow) bool {
	if !f.active {
		return false
	}
	f.active = false
	i := slices.Index(c.flows, f)
	c.flows = slices.Delete(c.flows, i, i+1)
	if !c.dark(f.Device) {
		c.lit--
	}
	return true
}

func (c *Channel) finish(f *Flow) {
	if !c.remove(f) {
		return
	}
	f.done = true
	f.remaining = 0
	if f.onComplete != nil {
		f.onComplete()
	}
}

// schedule asks for the recheck timer to be re-armed for the channel as it
// is now. It reserves the kernel's next sequence number — the recheck's
// place among same-instant events, as if armed here — and records lit and
// the flow count; the kernel runs arm once, before its next event, however
// many times this event asked.
func (c *Channel) schedule() {
	c.armSeq, c.armLit, c.armFlows = c.k.reserve(), c.lit, len(c.flows)
	if !c.pending {
		c.pending = true
		c.k.pending = append(c.k.pending, c)
	}
}

// arm (re)arms the recheck timer, at the last schedule's sequence number,
// for the earliest of: next trace boundary, earliest projected flow
// completion, over the flows and contention that schedule saw.
func (c *Channel) arm() {
	c.pending = false
	now := c.k.Now()
	next := math.Inf(1)
	dt, b := math.NaN(), 0.0 // b is NextBoundary(now) of a trace sampled every dt
	c.rates(now, c.armLit)
	for _, f := range c.flows[:c.armFlows] {
		// Trace boundaries of links with active flows (a dark link has no
		// boundary worth waking for — its rate is pinned at zero until it is
		// lit again, and SetLinkDown/SetServerDown reschedule then). The
		// boundary depends on the sample period alone: one per distinct Dt.
		if !c.dark(f.Device) {
			if tr := c.links[f.Device]; tr.Dt != dt {
				dt, b = tr.Dt, tr.NextBoundary(now)
			}
			if b < next {
				next = b
			}
		}
		// Projected completions under current rates.
		if f.remaining <= 1e-6 {
			// Already drained (a rate change landed exactly on the
			// completion instant): complete it on the next recheck now.
			next = now
			continue
		}
		if f.rate <= 0 {
			continue
		}
		if eta := now + f.remaining/f.rate; eta < next {
			next = eta
		}
	}
	if math.IsInf(next, 1) {
		// No flows, or all links at zero capacity with no future boundary
		// (constant zero trace) — nothing will ever progress; leave unarmed.
		c.recheck.Stop()
		return
	}
	c.k.arm(c.recheck, next, c.armSeq)
}

func (c *Channel) onRecheck() {
	now := c.k.Now()
	c.advance(now)
	// Complete everything that drained, tolerating float residue: a flow
	// whose remainder would clear within a nanosecond at its current rate
	// is done. (Without the rate-relative epsilon, an eta that rounds to
	// the current timestamp would reschedule at the same instant forever.)
	finished := c.finished[:0]
	c.rates(now, c.lit)
	for _, f := range c.flows {
		eps := 1e-6 + f.rate*1e-9
		if f.remaining <= eps {
			finished = append(finished, f)
		}
	}
	// Completion order: by device, start order within one (the sort is
	// stable over the flow list's order).
	slices.SortStableFunc(finished, func(a, b *Flow) int { return cmp.Compare(a.Device, b.Device) })
	for _, f := range finished {
		f.sent += f.remaining
		f.remaining = 0
		c.finish(f)
	}
	clear(finished)
	c.finished = finished
	c.schedule()
}

// SetLinkDown forces a device's link capacity to zero (down=true) or
// restores the trace-driven capacity (down=false). In-flight flows on the
// link stall and resume; byte integrals stay exact because the rate change
// lands on an event boundary.
func (c *Channel) SetLinkDown(device int, down bool) {
	if device < 0 || device >= len(c.links) {
		panic(fmt.Sprintf("simnet: device %d out of range", device))
	}
	if c.down[device] == down {
		return
	}
	c.advance(c.k.Now())
	c.down[device] = down
	c.relight()
	c.schedule()
}

// SetServerDown marks the server behind every link of the channel dead
// (down=true) or back (down=false): while it is down no flow drains. Per-link
// blackouts are untouched — each lasts until its own end.
func (c *Channel) SetServerDown(down bool) {
	if c.serverDown == down {
		return
	}
	c.advance(c.k.Now())
	c.serverDown = down
	c.relight()
	c.schedule()
}

// LinkDown reports whether the device's link is currently blacked out.
func (c *Channel) LinkDown(device int) bool { return c.down[device] }

// ActiveFlows returns the number of currently active flows.
func (c *Channel) ActiveFlows() int { return len(c.flows) }

// LinkMbps reports the instantaneous solo capacity of a device's link
// (before airtime sharing), already scaled. A dark link reports 0.
func (c *Channel) LinkMbps(device int) float64 {
	if c.dark(device) {
		return 0
	}
	return c.solo(device, c.k.Now()) * c.scale
}

// NumDevices returns the number of links the channel manages.
func (c *Channel) NumDevices() int { return len(c.links) }
