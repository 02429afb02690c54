package core

import (
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
// dedicated backhaul uplink.
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
// observed lead of any merge still obeys the bound, because a worker at
// iteration n passed CanAdvance(n-1) when the version floor was no higher
// than it is at merge time. Result.MaxStaleness reports the empirical
// maximum for the fleet experiment to assert on.
//
// Pulls are not aggregated: averaged rows are per-worker state (error
// feedback makes every copy different), so they keep the direct
// root→worker path.
type aggTier struct {
	c    *cluster
	up   *simnet.Channel // M backhaul uplinks, one device per aggregator
	aggs []*aggregator
}

// aggregator is one edge node: a coalescing queue and a busy flag for its
// single in-flight uplink flow.
type aggregator struct {
	id    int
	queue map[int]*aggRow // unit → pending combined row
	order []int           // units in first-arrival order (deterministic flush)
	busy  bool
	// flowSeq counts this aggregator's uplink flows — the correlation id on
	// its RowsSent events. Incremented unconditionally (pure memory) so
	// traced and untraced runs stay bit-identical.
	flowSeq int64
}

// aggRow is a pending combined row: the element-wise sum of every queued
// push of one unit, plus the version stamp of each contributing push.
type aggRow struct {
	unit   int
	vals   []float32
	stamps []engine.Stamp
}

// newAggTier builds the tier. Uplink traces draw from the same environment
// distribution as the robot links but from an independent seed stream — a
// backhaul fades too, just not in lockstep with any robot.
func newAggTier(c *cluster) *aggTier {
	m := c.cfg.Aggregators
	links := make([]*trace.Trace, m)
	for a := range links {
		links[a] = trace.GenerateEnv(c.cfg.Env, 300, c.cfg.Seed*7919+uint64(a)+1)
	}
	t := &aggTier{
		c:  c,
		up: simnet.NewChannel(c.k, links, c.ch.Scale),
	}
	for a := 0; a < m; a++ {
		t.aggs = append(t.aggs, &aggregator{id: a, queue: make(map[int]*aggRow)})
	}
	return t
}

// aggOf maps a worker to its aggregator: contiguous balanced groups, the
// same arithmetic rowsync.ShardMap uses for unit ranges.
func (t *aggTier) aggOf(w int) int {
	return w * len(t.aggs) / t.c.cfg.Workers
}

// enqueue accepts worker w's decoded row for unit u at local iteration n.
// vals is borrowed (the cluster's decode scratch) and copied here.
func (t *aggTier) enqueue(w, u int, vals []float32, n int64) {
	a := t.aggs[t.aggOf(w)]
	r := a.queue[u]
	if r == nil {
		r = &aggRow{unit: u, vals: append([]float32(nil), vals...)}
		a.queue[u] = r
		a.order = append(a.order, u)
	} else {
		for i, v := range vals {
			r.vals[i] += v
		}
	}
	r.stamps = append(r.stamps, engine.Stamp{Worker: w, Iter: n})
	t.flush(a)
}

// flush starts the next uplink flow if the aggregator is idle and has
// queued rows. The whole queue ships as one flow (its rows were coalesced
// while the previous flow drained); on completion the combined rows merge
// into the root state and any workers parked on the RSP gate re-check.
func (t *aggTier) flush(a *aggregator) {
	if a.busy || len(a.order) == 0 {
		return
	}
	rows := make([]*aggRow, 0, len(a.order))
	var bytes float64
	for _, u := range a.order {
		rows = append(rows, a.queue[u])
		bytes += float64(t.c.part.WireSize(u))
	}
	a.queue = make(map[int]*aggRow, len(rows))
	a.order = a.order[:0]
	a.busy = true
	a.flowSeq++
	seq := a.flowSeq
	start := t.c.k.Now()
	t.up.StartFlow(a.id, bytes, func() {
		for _, r := range rows {
			t.c.state.MergeCombined(r.unit, r.vals, r.stamps)
		}
		// The backhaul hop is infrastructure time, not any robot's radio:
		// the negative worker id routes it to the critical-path analyzer's
		// infra bucket instead of a worker's comm segment.
		t.c.probe.RowsSent(-(a.id + 1), 0, seq, obs.DirPush, len(rows), bytes,
			t.c.k.Now()-start, false)
		a.busy = false
		t.c.waiters.Wake()
		t.flush(a)
	})
}
