package core

import (
	"math"

	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/lossnet"
	"rog/internal/obs"
)

// This file injects the lossnet channel model into the simnet runtime. The
// interception point is the per-unit deliver callback of send — the one
// funnel every transmission (push, pull, uplink flush, rejoin resync) and
// every shape (speculative, forced continuation, whole-plan) routes row
// deliveries through. A unit whose bytes crossed the link still rolls that
// link's loss model:
//
//   - delivered → the normal merge/apply path runs;
//   - lost, best-effort class → nothing runs: the gradient mass stays in
//     the sender's accumulator (push) or is folded back into the server
//     copy when the pull ends (engine.Peer.Settle), the row's
//     pushIter/version never advances, and RSP accounting sees a row that
//     was simply never sent. Thm. 1's staleness bound is untouched.
//   - lost, reliable class → the unit queues for a retransmission flow
//     that consumes real airtime on the same link; rounds repeat (each
//     redrawing loss) until everything reliable has landed. The loop
//     terminates because no loss model reaches probability 1.
//
// The reliable class is the policy split of the paper's companion idea
// (LTP-style selective reliability steered by ATP importance): a
// speculative plan's Must prefix — the MTA floor plus the rows RSP forces
// to keep the staleness gate live — retransmits; everything after it may
// be lost cheaply. Whole plans (BSP/SSP, an aggregator's flush, the rejoin
// resync) and AllReliable mode treat every row as reliable (LTP's rule: what must land
// is retransmitted until acked).
//
// When Config.Loss is disabled none of this is constructed and the
// transmit paths are byte-identical to the lossless baseline.

// lossFilter carries one transmission's loss state.
type lossFilter struct {
	c       *cluster
	l       link
	n       int64
	dir     obs.Dir
	rel     func(u int) bool
	deliver func(u int)

	folded int   // best-effort units lost (gradients fold back)
	retry  []int // reliable units awaiting retransmission
}

// reliableFor returns the reliable-class predicate for one plan. Under
// AllReliable, or for a non-speculative whole-plan transmission, every unit
// retransmits; under Selective only the speculative plan's Must prefix does.
func (c *cluster) reliableFor(plan engine.Plan) func(u int) bool {
	if c.cfg.Reliability == lossnet.AllReliable || !plan.Speculative {
		return func(int) bool { return true }
	}
	rel := make(map[int]bool, plan.Must)
	for i, u := range plan.Units {
		if i >= plan.Must {
			break
		}
		rel[u] = true
	}
	return func(u int) bool { return rel[u] }
}

// lossy wraps one transmission's deliver/done pair in link l's loss channel;
// a link without one gets the pair back untouched. The wrapped done
// settles the losses first: it reports the fold-backs, then repeats the
// reliable ones until all have landed. The rounds extend the transmission —
// the MTA report (what the straggler tracker sees) and the comm time both
// include them: loss slows the link, visibly.
func (c *cluster) lossy(l link, n int64, dir obs.Dir, plan engine.Plan, deliver func(u int),
	done func(delivered int, mtaTime, elapsed float64)) (func(u int), func(int, float64, float64)) {
	if l.loss == nil {
		return deliver, done
	}
	f := &lossFilter{c: c, l: l, n: n, dir: dir, rel: c.reliableFor(plan), deliver: deliver}
	return f.filterDeliver, func(delivered int, mtaTime, elapsed float64) {
		if f.folded > 0 {
			c.probe.RowsLost(l.id, n, dir, f.folded, "fold")
			c.state.ObserveLoss(f.folded, 0, 0)
		}
		f.retransmitRound(0, func(retrans float64) { done(delivered, mtaTime+retrans, elapsed+retrans) })
	}
}

// filterDeliver is the wrapped per-unit delivery: roll the dice, then
// deliver, queue or fold.
func (f *lossFilter) filterDeliver(u int) {
	if !f.l.loss.Lost(f.c.k.Now()) {
		f.deliver(u)
		return
	}
	if f.rel(u) {
		f.retry = append(f.retry, u)
	} else {
		f.folded++
	}
}

// retransmitRound moves every queued reliable unit over the link again, a
// whole plan with no deadline. Units lost again requeue (they are all
// reliable) for the next round. RowsLost(retransmit) and Retransmit are
// emitted together per round, counting the units that landed — so the
// aggregate totals pair exactly even if the run halts between rounds.
func (f *lossFilter) retransmitRound(spent float64, done func(retransSeconds float64)) {
	if len(f.retry) == 0 {
		done(spent)
		return
	}
	ap := atp.NewPlan(f.retry, f.c.wireSize)
	f.retry = nil
	f.c.sendPlan(f.l, ap, len(ap.Units), math.Inf(1), f.filterDeliver, func(_ int, _, elapsed float64) {
		landed := len(ap.Units) - len(f.retry)
		if landed > 0 {
			f.c.probe.RowsLost(f.l.id, f.n, f.dir, landed, "retransmit")
		}
		// Bytes count even on a fully re-lost round — the airtime was spent.
		f.c.probe.Retransmit(f.l.id, f.n, f.dir, landed, ap.TotalBytes(), elapsed)
		f.c.state.ObserveLoss(0, landed, ap.TotalBytes())
		f.retransmitRound(spent+elapsed, done)
	})
}
