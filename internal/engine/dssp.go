package engine

// dssp is Dynamic SSP (after Zhao et al., "Dynamic Stale Synchronous
// Parallel Distributed Training for Deep Learning"): SSP whose staleness
// threshold is not fixed but adapts at run time inside [lo, hi]. When the
// team runs in step, a tight threshold costs nothing and buys fresher
// updates (better statistical efficiency); when stragglers press against
// the gate, the controller relaxes the threshold toward hi to trade
// staleness for stall. The configured Threshold is the hard upper bound,
// so DSSP inherits SSP's convergence guarantee at that bound.
//
// The policy exists mainly as the demonstration that a new strategy now
// costs one file: transports, merging, membership and accounting all come
// from the engine and its runtimes.
type dssp struct {
	lo, hi int64
	cur    int64
	// lastIter[w] is the newest iteration seen from each worker; its spread
	// is the controller's congestion signal.
	lastIter []int64
}

func newDSSP(p Params) *dssp {
	hi := int64(p.Threshold)
	lo := int64(2)
	if lo > hi {
		lo = hi
	}
	return &dssp{lo: lo, hi: hi, cur: hi, lastIter: make([]int64, p.Workers)}
}

func (*dssp) Name() string { return "dssp" }

func (*dssp) PlanPush(v PushView) Plan { return allUnits(len(v.Rows)) }

// Bound is the *current* dynamic threshold. It is a pure read: adaptation
// happens only in PlanPull, which every runtime calls exactly once per
// worker-iteration, so both transports see the same threshold sequence for
// the same event order. A PlanPull can move it in the middle of a wake, so
// a gate reads it live and never remembers it.
func (d *dssp) Bound() int64 { return d.cur }

// PlanPull returns the whole model (SSP-style) and runs one controller
// step: measure the team's iteration spread; if workers are pressing the
// current gate, loosen it, and if they run well inside it, tighten.
func (d *dssp) PlanPull(v PullView) Plan {
	if d.lastIter[v.Worker] < v.Iter {
		d.lastIter[v.Worker] = v.Iter
	}
	minIt, maxIt := d.lastIter[0], d.lastIter[0]
	for _, it := range d.lastIter[1:] {
		if it < minIt {
			minIt = it
		}
		if it > maxIt {
			maxIt = it
		}
	}
	spread := maxIt - minIt
	switch {
	case spread >= d.cur-1 && d.cur < d.hi:
		d.cur++
	case spread < d.cur/2 && d.cur > d.lo:
		d.cur--
	}
	return allUnits(len(v.Rows))
}

func (*dssp) ObservePush(worker int, iter int64, seconds float64) {}
