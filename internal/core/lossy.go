package core

import (
	"rog/internal/engine"
	"rog/internal/lossnet"
	"rog/internal/obs"
)

// This file injects the lossnet channel model into the simnet drivers. The
// interception point is the per-unit deliver callback of transmit — the
// one funnel both driver loops and every transmission shape (speculative,
// forced continuation, whole-plan) route row deliveries through. A unit
// whose bytes crossed the simulated link still rolls the loss model's dice:
//
//   - delivered → the normal merge/apply path runs;
//   - lost, best-effort class → nothing runs: the gradient mass stays in
//     the sender's accumulator (push) or is folded back into the server
//     copy when the pull ends (engine.Downlink.Release), the row's
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
// be lost cheaply. Whole-model plans (BSP/SSP) and AllReliable mode treat
// every row as reliable.
//
// When Config.Loss is disabled none of this is constructed and the
// transmit paths are byte-identical to the lossless baseline.

// lossFilter carries one transmission's loss state.
type lossFilter struct {
	c       *cluster
	w       int
	n       int64
	dir     obs.Dir
	model   lossnet.Model
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

// newLossFilter wraps deliver for worker w's transmission, or returns nil
// when the run has no loss channel.
func (c *cluster) newLossFilter(w int, n int64, dir obs.Dir, plan engine.Plan, deliver func(u int)) *lossFilter {
	if c.loss == nil {
		return nil
	}
	return &lossFilter{
		c: c, w: w, n: n, dir: dir,
		model:   c.loss[w],
		rel:     c.reliableFor(plan),
		deliver: deliver,
	}
}

// filterDeliver is the wrapped per-unit delivery: roll the dice, then
// deliver, queue or fold.
func (f *lossFilter) filterDeliver(u int) {
	if !f.model.Lost(f.c.k.Now()) {
		f.deliver(u)
		return
	}
	if f.rel(u) {
		f.retry = append(f.retry, u)
	} else {
		f.folded++
	}
}

// drain settles the transmission's losses: report the fold-backs, then run
// retransmission flows until the reliable queue is empty, and hand done the
// extra seconds the repeats cost.
func (f *lossFilter) drain(done func(retransSeconds float64)) {
	if f.folded > 0 {
		f.c.probe.RowsLost(f.w, f.n, f.dir, f.folded, "fold")
		f.c.state.ObserveLoss(f.folded, 0, 0)
		f.folded = 0
	}
	f.retransmitRound(0, done)
}

// retransmitRound moves every queued reliable unit over the link again.
// Units lost again requeue for the next round. RowsLost(retransmit) and
// Retransmit are emitted together per round, counting the units that
// landed — so the aggregate totals pair exactly even if the run halts
// between rounds.
func (f *lossFilter) retransmitRound(spent float64, done func(retransSeconds float64)) {
	if len(f.retry) == 0 {
		done(spent)
		return
	}
	units := f.retry
	f.retry = nil
	var bytes float64
	for _, u := range units {
		bytes += f.c.wireSize(u)
	}
	start := f.c.k.Now()
	f.c.ch.StartFlow(f.w, bytes, func() {
		elapsed := f.c.k.Now() - start
		delivered := 0
		for _, u := range units {
			if f.model.Lost(f.c.k.Now()) {
				f.retry = append(f.retry, u)
			} else {
				f.deliver(u)
				delivered++
			}
		}
		if delivered > 0 {
			f.c.probe.RowsLost(f.w, f.n, f.dir, delivered, "retransmit")
		}
		// Bytes count even on a fully re-lost round — the airtime was spent.
		f.c.probe.Retransmit(f.w, f.n, f.dir, delivered, bytes, elapsed)
		f.c.state.ObserveLoss(0, delivered, bytes)
		f.retransmitRound(spent+elapsed, done)
	})
}
