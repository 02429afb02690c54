package core

import (
	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/obs"
)

// This file is the per-worker driver loop shared by every non-pipelined
// policy (BSP, SSP, FLOWN, ROG, DSSP): compute → plan → push →
// staleness gate → plan → pull → next iteration, with every decision —
// what to transmit, whether to skip, when to advance — delegated to the
// engine policy. The loop owns only simnet mechanics: flows, timers, the
// waiter list and the energy/stall accounting.

func (c *cluster) wireSize(u int) float64 { return float64(c.part.WireSize(u)) }

// transmit moves one plan of worker w's iteration n over its link — a push
// (opening a new plan sequence) or the pull that completes it —
// speculatively under the MTA budget when the plan says so, else as one
// whole-plan flow. A pull's rows leave the server copy here, at plan time
// (engine.Downlink): a later merge rides the worker's next pull, and what
// the flow does not deliver is folded back when it ends. done receives the
// delivered unit count, the (possibly estimated) MTA time and the elapsed
// transmission time.
func (c *cluster) transmit(w int, n int64, dir obs.Dir, plan engine.Plan, done func(delivered int, mtaTime, elapsed float64)) {
	ap := atp.NewPlanObserved(plan.Units, c.wireSize, c.probe)
	var deliver func(u int)
	if dir == obs.DirPull {
		c.down[w].Hold(c.state, plan.Units)
		deliver = func(u int) {
			if p, ok := c.down[w].Take(u); ok {
				c.deliverPull(w, p)
			}
		}
	} else {
		c.planSeq[w]++
		// Seed the engine state's per-worker plan seq so the Merge events this
		// push produces carry the same correlation id (no-op when tracing is
		// off).
		c.state.NotePushSeq(w, c.planSeq[w])
		c.probe.PushPlanned(w, n, c.planSeq[w], len(ap.Units), plan.Must,
			c.part.NumUnits()-len(ap.Units), ap.TotalBytes(), plan.Speculative, "")
		deliver = func(u int) { c.deliverPush(w, u, n) }
	}
	seq := c.planSeq[w] // a pull completes the push plan's iteration
	finish := func(delivered int, mtaTime, elapsed float64) {
		if dir == obs.DirPull {
			c.down[w].Release(c.state)
		}
		c.probe.RowsSent(w, n, seq, dir, delivered, ap.Prefix[delivered], elapsed, plan.Speculative)
		done(delivered, mtaTime, elapsed)
	}
	if f := c.newLossFilter(w, n, dir, plan, deliver); f != nil {
		deliver = f.filterDeliver
		inner := finish
		finish = func(delivered int, mtaTime, elapsed float64) {
			f.drain(func(retrans float64) {
				// Retransmission rounds extend the transmission: the MTA
				// report (what the straggler tracker sees) and the comm time
				// both include them — loss slows the link, visibly.
				inner(delivered, mtaTime+retrans, elapsed+retrans)
			})
		}
	}
	if plan.Speculative {
		c.sendPlan(w, ap, plan.Must, c.state.Tracker.Budget(), deliver, finish)
		return
	}
	start := c.k.Now()
	c.ch.StartFlow(w, ap.TotalBytes(), func() {
		for _, u := range plan.Units {
			deliver(u)
		}
		elapsed := c.k.Now() - start
		finish(len(plan.Units), elapsed, elapsed)
	})
}

// synchronize is the communication half of worker w's iteration n, shared
// by the async and pipelined loops: push what the policy planned, report it
// (ObservePush, the Fig. 8 sample), let the merges re-evaluate every parked
// gate, wait out w's own — parked on the waiter list so version advances
// and detaches re-check it — then pull what the server plans. done gets the
// summed transmission seconds; a crash abandons the iteration and done
// never fires.
func (c *cluster) synchronize(w int, n int64, plan engine.Plan, done func(commSec float64)) {
	c.transmit(w, n, obs.DirPush, plan, func(delivered int, mtaTime, pushSec float64) {
		c.state.ObservePush(w, n, mtaTime, pushSec, plan.Speculative)
		c.recordMicro(w, n, delivered)
		c.waiters.Wake()

		pull := func() bool {
			if c.crashed[w] {
				return true // abandon: the crash ends the iteration
			}
			if !c.state.CanAdvance(n) {
				return false
			}
			c.transmit(w, n, obs.DirPull, c.state.PlanPull(w, n), func(_ int, _, pullSec float64) {
				done(pushSec + pullSec)
			})
			return true
		}
		if !pull() {
			c.parkStalled(w, n, pull)
		}
	})
}

// recordMicro appends one Fig. 8 sample for the observed worker.
func (c *cluster) recordMicro(w int, n int64, delivered int) {
	if !c.cfg.RecordMicro || w != 1 {
		return
	}
	var maxIt int64
	for _, it := range c.iter {
		if it > maxIt {
			maxIt = it
		}
	}
	stale := maxIt - (n - 1)
	if stale < 0 {
		stale = 0
	}
	c.micro = append(c.micro, MicroSample{
		Time:      c.k.Now(),
		LinkMbps:  c.ch.LinkMbps(w) / c.ch.Scale, // un-scaled trace value
		TxRate:    float64(delivered) / float64(c.part.NumUnits()),
		Staleness: stale,
	})
}

// parkStalled parks worker w's gate predicate on the waiter list with the
// stall interval traced: StallBegin at the park, StallEnd when the retried
// predicate finally succeeds. A predicate dropped by a crash leaves its
// interval open — the aggregation tolerates an unclosed stall (the run
// ended, or membership ended it).
func (c *cluster) parkStalled(w int, n int64, pull func() bool) {
	start := c.k.Now()
	if c.probe != nil {
		// Causal attribution: StallBegin names the (worker, unit, version)
		// currently pinning the RSP gate's version floor; StallEnd names the
		// merge that last advanced the floor — the release that let the
		// predicate pass.
		seq, gate := c.planSeq[w], pull
		c.probe.StallBegin(w, n, seq, "gate", c.state.MinBlocker())
		pull = func() bool {
			if !gate() {
				return false
			}
			c.probe.StallEnd(w, n, seq, "gate", c.k.Now()-start, c.state.LastRelease())
			return true
		}
	}
	c.waiters.Park(w, start, pull)
}

// runAsync drives independent workers: each computes, synchronizes (push,
// staleness gate, pull) and loops; BSP's gate keeps them in lockstep.
func (c *cluster) runAsync() {
	var startIter func(w int)
	startIter = func(w int) {
		if c.crashed[w] {
			return // rejoin restarts the loop via resumeFn
		}
		if c.shouldHalt(w) {
			c.halted[w] = true
			return
		}
		iterStart := c.k.Now()
		n := c.iter[w] + 1
		c.probe.IterStart(w, n)

		c.wl.ComputeGradients(w)
		c.accumulate(w)

		c.k.After(c.computeSecondsFor(w), func() {
			if c.crashed[w] {
				return // crashed during compute: the iteration is lost
			}
			plan := c.planPush(w, n)
			if plan.Skip {
				// The scheduler (FLOWN) sat this one out: local gradients
				// keep accumulating, nothing moves.
				c.planSeq[w]++
				c.probe.PushPlanned(w, n, c.planSeq[w], 0, 0, c.part.NumUnits(), 0, false, "skip")
				c.finishIteration(w, iterStart, 0)
				startIter(w)
				return
			}
			c.synchronize(w, n, plan, func(commSec float64) {
				c.finishIteration(w, iterStart, commSec)
				startIter(w)
			})
		})
	}
	c.resumeFn = startIter
	for w := 0; w < c.cfg.Workers; w++ {
		startIter(w)
	}
}
