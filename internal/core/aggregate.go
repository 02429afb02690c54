package core

import (
	"slices"

	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/obs"
	"rog/internal/simnet"
	"rog/internal/trace"
)

// aggTier is the edge-aggregation layer between the robots and the root
// parameter server (Config.Aggregators). Fleet-scale deployments cannot
// point hundreds of radios at one access point; instead the N workers are
// split into contiguous groups of ~N/M robots, each served by one of M
// edge aggregators (a roadside unit or a better-connected robot). A push
// now takes two hops: the robot's own radio carries the row to its
// aggregator (the existing per-worker channel — that contention is why the
// tier exists), and the aggregator forwards it to the root over a
// dedicated backhaul uplink — a link like any robot's, so the second hop
// rides send too: it draws Config.Loss (a combined row is reliable: a lost
// one goes again until it lands) and is dark while the server is down.
//
// The aggregator pre-combines: while its uplink is busy, newly arrived
// rows for the same unit are summed element-wise and their version stamps
// concatenated, so one uplink flow delivers the combined contribution of
// every robot that pushed that unit in the interim. Summing commutes with
// the root's shrink-to-attached averaging (Merge scales each contribution
// by 1/attached, and (a+b)·inv = a·inv + b·inv up to float re-association),
// so the converged math is the paradigm's.
//
// Staleness safety: a forwarded row carries the stamp (worker, iter) of
// every originating push, and engine.State.MergeCombined advances each
// worker's per-unit version exactly as the direct path would. The RSP gate
// is checked against root state, so a row parked in an aggregator queue
// can only delay its own worker (the gate stays conservative); the
// observed lead of any merge still obeys the bound by the admission rule:
// a worker's push n leaves only once engine.Peer.Admit has found n−1 inside
// the bound over the other workers' minimum, which can only have risen by
// the time its rows merge here. Result.MaxStaleness reports the empirical
// maximum for the fleet experiment to assert on.
//
// Pulls are not aggregated: averaged rows are per-worker state (error
// feedback makes every copy different), so they keep the direct
// root→worker path.
type aggTier struct {
	c    *cluster
	aggs []*aggregator
}

// aggregator is one edge node: its uplink, a coalescing queue and a busy
// flag for its single in-flight uplink plan. Nothing here is keyed by a hash:
// the queue and the rows in flight are one slot per unit, swapped at flush
// (every row of the previous plan has merged by then), and merged rows go
// back on a free list with their capacity.
type aggregator struct {
	up     link
	queue  []*aggRow // per unit: pending combined row
	order  []int     // queued units in first-arrival order (deterministic flush)
	flying []*aggRow // per unit: row on the uplink, not yet merged
	plan   atp.Plan  // the flush in flight: order's other buffer, and its prefix sums
	free   []*aggRow
	busy   bool
	// The flush plan's two callbacks, built once: a flush is the aggregator's
	// state and nothing else.
	deliver func(u int)
	done    func(delivered int, mtaTime, elapsed float64)
}

// aggRow is a pending combined row: the element-wise sum of every queued
// push of one unit, plus the version stamp of each contributing push.
type aggRow struct {
	vals   []float32
	stamps []engine.Stamp
}

// newAggTier builds the tier: M backhaul uplinks on a channel of their own,
// one device per aggregator. Uplink traces draw from the same environment
// distribution as the robot links but from an independent seed stream — a
// backhaul fades too, just not in lockstep with any robot.
func newAggTier(c *cluster) *aggTier {
	traces := make([]*trace.Trace, c.cfg.Aggregators)
	for a := range traces {
		traces[a] = trace.GenerateEnv(c.cfg.Env, 300, c.cfg.Seed*7919+uint64(a)+1)
	}
	up := simnet.NewChannel(c.k, traces, c.ch.Scale())
	t := &aggTier{c: c}
	for i := range traces {
		l := c.newLink(up, i, -(i + 1), c.cfg.Seed*7013+uint64(i)+1)
		c.links = append(c.links, l)
		a := &aggregator{up: l, queue: make([]*aggRow, c.part.NumUnits()), flying: make([]*aggRow, c.part.NumUnits())}
		// Each combined row merges into the root state as it lands; when all
		// have, any workers parked on the RSP gate re-check.
		a.deliver = func(u int) {
			r := a.flying[u]
			a.flying[u] = nil
			c.state.MergeCombined(u, r.vals, r.stamps)
			a.free = append(a.free, r)
		}
		a.done = func(delivered int, _, elapsed float64) {
			// Infrastructure time, not any robot's radio: the uplink's id says so.
			c.probe.RowsSent(a.up.id, 0, obs.DirPush, delivered, a.plan.TotalBytes(), elapsed, false)
			a.busy = false
			c.gates.wake(c.state.Frontier(), 0, nil)
			t.flush(a)
		}
		t.aggs = append(t.aggs, a)
	}
	return t
}

// aggOf maps a worker to its aggregator: contiguous balanced groups, the
// same arithmetic rowsync.ShardMap uses for unit ranges.
func (t *aggTier) aggOf(w int) *aggregator {
	return t.aggs[w*len(t.aggs)/t.c.cfg.Workers]
}

// enqueue accepts the decoded row for unit u that st.Worker pushed at local
// iteration st.Iter. vals is borrowed (the cluster's decode scratch) and
// copied here.
func (t *aggTier) enqueue(u int, vals []float32, st engine.Stamp) {
	a := t.aggOf(st.Worker)
	r := a.queue[u]
	if r == nil {
		if n := len(a.free); n > 0 {
			r, a.free = a.free[n-1], a.free[:n-1]
		} else {
			r = new(aggRow)
		}
		r.vals, r.stamps = append(r.vals[:0], vals...), r.stamps[:0]
		a.queue[u] = r
		a.order = append(a.order, u)
	} else {
		for i, v := range vals {
			r.vals[i] += v
		}
	}
	r.stamps = append(r.stamps, st)
	t.flush(a)
}

// holds reports whether worker w's push of unit u at iteration n is still
// parked in the tier, queued or on the uplink: it will merge when it lands,
// so a server restart must not count it lost.
func (t *aggTier) holds(w, u int, n int64) bool {
	a := t.aggOf(w)
	for _, r := range [...]*aggRow{a.queue[u], a.flying[u]} {
		if r != nil && slices.ContainsFunc(r.stamps, func(st engine.Stamp) bool { return st.Worker == w && st.Iter == n }) {
			return true
		}
	}
	return false
}

// flush sends the queue up if the aggregator is idle and has queued rows.
// The whole queue ships as one plan (its rows were coalesced while the
// previous one drained), whole and reliable like a BSP push.
func (t *aggTier) flush(a *aggregator) {
	if a.busy || len(a.order) == 0 {
		return
	}
	units := a.order
	a.queue, a.flying, a.order = a.flying, a.queue, a.plan.Units[:0]
	a.busy = true
	a.plan = atp.PlanInto(a.plan.Prefix, units, t.c.wireSize)
	t.c.send(a.up, 0, obs.DirPush, engine.Plan{Units: units, Must: len(units)}, a.plan, a.deliver, a.done)
}
