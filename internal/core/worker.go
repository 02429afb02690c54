package core

import (
	"math"
	"slices"

	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/obs"
)

// This file is the one per-worker loop every policy runs on (BSP, SSP,
// FLOWN, ROG; Config.Pipeline only sets its depth): compute → plan →
// push → staleness gate → plan → pull, with every decision — what to
// transmit, whether to skip, when to advance — delegated to the engine
// policy. The loop owns only simnet mechanics: the robot's CPU and radio,
// flows, timers, the gate slots and the energy/stall accounting.

func (c *cluster) wireSize(u int) float64 { return float64(c.part.WireSize(u)) }

// robot is one worker's loop state: its two serial resources and the
// computed iteration waiting between them.
type robot struct {
	cpuBusy, radioBusy bool
	computed           int64   // iterations whose compute has started
	ready              int64   // computed iteration waiting for the radio (0 = none)
	began              float64 // when ready's compute started
	commEnd            float64 // when the radio last finished an iteration
}

// resume (re)starts worker w's loop with an idle CPU and radio: at launch
// (iter[w] is non-zero after a Resume) and after a rejoin's resync. What a
// crash caught in flight is abandoned, not redone — iteration numbers never
// move back, so the next push stamps above every version the worker already
// put on the server.
func (c *cluster) resume(w int) {
	c.iter[w] = max(c.iter[w], c.robots[w].computed)
	c.robots[w] = robot{computed: c.iter[w]}
	c.compute(w)
}

// compute starts worker w's next iteration on its CPU, unless the CPU is
// busy, a computed iteration still waits for the radio, or the run is over.
func (c *cluster) compute(w int) {
	r := &c.robots[w]
	if c.crashed[w] || r.cpuBusy || r.ready != 0 {
		return // a rejoin restarts the loop through resume
	}
	if r.computed >= int64(c.cfg.MaxIterations) || c.k.Now() >= c.cfg.MaxVirtualSeconds {
		c.halted[w] = true
		return
	}
	r.cpuBusy = true
	r.computed++
	n, began := r.computed, c.k.Now()
	c.probe.IterStart(w, n)
	c.wl.ComputeGradients(w)
	c.k.After(c.computeSecondsFor(w), func() {
		// The gradients join g′ when the CPU hands them over, not when it
		// starts: at depth 1 the radio is still carrying the previous
		// iteration, whose rows are encoded as they are delivered. Before the
		// crash check, so a robot that crashes mid-compute keeps them.
		c.accumulate(w)
		if c.crashed[w] {
			return // crashed during compute: the iteration is lost
		}
		r.cpuBusy = false
		r.ready, r.began = n, began
		c.communicate(w)
	})
}

// communicate puts the iteration waiting on worker w's radio once the radio
// is free, and accounts it when the radio is done with it. The span it
// accounts starts at the later of its compute start and the previous
// iteration's end: at depth 0 the two coincide, at depth 1 the compute
// started while the radio was busy and that overlap is not counted twice,
// and after a rejoin the compute start is the later one, so the downtime is
// in no span.
func (c *cluster) communicate(w int) {
	r := &c.robots[w]
	if c.crashed[w] || r.radioBusy || r.ready == 0 {
		return
	}
	n, spanStart := r.ready, max(r.began, r.commEnd)
	r.ready, r.radioBusy = 0, true
	finish := func(commSec float64) {
		c.finishIteration(w, spanStart, commSec)
		r.commEnd = c.k.Now()
		r.radioBusy = false
		c.communicate(w)
		c.compute(w)
	}
	plan := c.planPush(w, n)
	if plan.Skip {
		// The scheduler (FLOWN) sat this one out: local gradients keep
		// accumulating, nothing moves.
		c.probe.PushPlanned(w, n, 0, 0, c.part.NumUnits(), 0, false, "skip")
		finish(0)
		return
	}
	c.synchronize(w, n, plan, finish)
	if c.cfg.Pipeline {
		// Depth 1 (Sec. VI-D, Pipe-SGD style): the next compute may begin
		// when this communication begins — on the model before pull n, one
		// more bounded unit of staleness, still governed by the gate. At
		// depth 0 it begins when the communication ends (finish). Compute and
		// comm then overlap, so the stall residual clamps at zero and metered
		// time may exceed wall time: both chips draw power at once.
		c.compute(w)
	}
}

// send moves one plan over link l — either hop: a robot's radio or an
// aggregator's uplink — through the link's loss channel when it has one, then
// sendPlan — with the MTA budget as the deadline when the plan is
// speculative, with none otherwise. done receives the delivered unit count,
// the (possibly estimated) MTA time and the elapsed transmission time,
// retransmission rounds included.
func (c *cluster) send(l link, n int64, dir obs.Dir, plan engine.Plan, ap atp.Plan, deliver func(u int), done func(delivered int, mtaTime, elapsed float64)) {
	deliver, done = c.lossy(l, n, dir, plan, deliver, done)
	budget := math.Inf(1)
	if plan.Speculative {
		budget = c.state.Tracker.Budget()
	}
	c.sendPlan(l, ap, plan.Must, budget, deliver, done)
}

// transmit moves one plan of worker w's iteration n over its link — a push
// or the pull that completes it, whose rows engine.Peer already holds: the
// flow takes each as it delivers it, and what it does not deliver is folded
// back when it ends.
func (c *cluster) transmit(w int, n int64, dir obs.Dir, plan engine.Plan, done func(delivered int, mtaTime, elapsed float64)) {
	ap := atp.NewPlan(plan.Units, c.wireSize)
	c.probe.ObservePlan(len(ap.Units), ap.TotalBytes())
	var deliver func(u int)
	if dir == obs.DirPull {
		deliver = func(u int) {
			if p, ok := c.peer[w].Take(u); ok {
				c.deliverPull(w, p)
			}
		}
	} else {
		c.probe.PushPlanned(w, n, len(ap.Units), plan.Must,
			c.part.NumUnits()-len(ap.Units), ap.TotalBytes(), plan.Speculative, "")
		deliver = func(u int) { c.deliverPush(w, u, n) }
	}
	c.send(c.links[w], n, dir, plan, ap, deliver, func(delivered int, mtaTime, elapsed float64) {
		if dir == obs.DirPull {
			c.peer[w].Settle(c.state, nil)
		}
		c.probe.RowsSent(w, n, dir, delivered, ap.Prefix[delivered], elapsed, plan.Speculative)
		done(delivered, mtaTime, elapsed)
	})
}

// synchronize is the communication half of worker w's iteration n, the
// engine.Peer sequence over simnet: admit the push (Admit — a refused one
// waits in w's gate slot, retried on every wake), push what the policy
// planned, report it (PushDone, the Fig. 8 sample), let the merges retry
// every parked gate they can open, wait out w's own — its Gate retried from
// w's gate slot, so version advances and detaches re-check it — then pull
// what the server plans. done gets the summed transmission seconds; a crash
// abandons the iteration (the slot drops its retry, its stall stays open)
// and done never fires.
func (c *cluster) synchronize(w int, n int64, plan engine.Plan, done func(commSec float64)) {
	if c.peer[w].Admit(c.state, n, c.k.Now()) {
		c.exchange(w, n, plan, done)
		return
	}
	c.gates.parkPush(w, c.k.Now(), n-1, func() bool {
		ok := c.peer[w].Admit(c.state, n, c.k.Now())
		if ok {
			c.exchange(w, n, plan, done)
		}
		return ok
	})
}

// exchange is synchronize past the admission: the push, the gate, the pull.
func (c *cluster) exchange(w int, n int64, plan engine.Plan, done func(commSec float64)) {
	c.transmit(w, n, obs.DirPush, plan, func(delivered int, mtaTime, pushSec float64) {
		c.peer[w].PushDone(c.state, n, mtaTime, pushSec, plan.Speculative)
		c.recordMicro(w, n, delivered)
		c.gates.wake(c.state.Frontier(), 0, nil)

		pull := func() bool {
			if c.crashed[w] {
				return true // abandon: the crash ends the iteration
			}
			if !c.peer[w].Gate(c.state, n, c.k.Now()) {
				return false
			}
			c.transmit(w, n, obs.DirPull, c.peer[w].HoldPull(c.state, n), func(_ int, _, pullSec float64) {
				done(pushSec + pullSec)
			})
			return true
		}
		if !pull() {
			c.gates.park(w, c.k.Now(), n, pull)
		}
	})
}

// recordMicro appends one Fig. 8 sample for the observed worker.
func (c *cluster) recordMicro(w int, n int64, delivered int) {
	if !c.cfg.RecordMicro || w != 1 {
		return
	}
	c.micro = append(c.micro, MicroSample{
		Time:      c.k.Now(),
		LinkMbps:  c.ch.LinkMbps(w) / c.ch.Scale(), // un-scaled trace value
		TxRate:    float64(delivered) / float64(c.part.NumUnits()),
		Staleness: max(0, slices.Max(c.iter)-(n-1)),
	})
}
