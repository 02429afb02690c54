package engine

import "math"

// flown is the dynamic-threshold scheduling baseline (after Chen et al.,
// the paper's strongest baseline). The scheduler compares each worker's
// own most recent transmission time against the team's slowest (the
// MTA-time budget doubles as that straggler estimate) and assigns a
// per-worker synchronization period τ ∈ [1, threshold−1]: workers
// predicted slow sync less often, workers predicted fast sync every
// iteration. Scheduling is model-granular, so when the wireless bandwidth
// shifts *during* a transmission the schedule is already stale — the
// mismatch the paper blames for FLOWN's residual stall (Sec. I, Fig. 1).
type flown struct {
	threshold int64
	lastSync  []int64   // last iteration each worker synchronized
	ownTime   []float64 // each worker's last measured push time (0 = none yet)
}

func newFLOWN(p Params) *flown {
	return &flown{
		threshold: int64(p.Threshold),
		lastSync:  make([]int64, p.Workers),
		ownTime:   make([]float64, p.Workers),
	}
}

// period computes worker w's scheduled synchronization period: the slower
// its last transmission relative to the team's slowest, the less often it
// syncs. Before the first measurement a worker syncs every iteration.
func (f *flown) period(w int, budget float64) int64 {
	own := f.ownTime[w]
	if own <= 0 || budget <= 0 {
		return 1
	}
	tau := int64(math.Ceil(float64(f.threshold) * own / budget))
	if tau < 1 {
		tau = 1
	}
	if max := f.threshold - 1; tau > max {
		tau = max
	}
	return tau
}

// PlanPush skips the iteration when the worker is inside its assigned
// period and skipping cannot trip the global threshold; otherwise it
// pushes the whole model.
func (f *flown) PlanPush(v PushView) Plan {
	mustSync := v.Iter-f.lastSync[v.Worker] >= f.period(v.Worker, v.Budget) ||
		v.Iter-v.Min >= f.threshold-1
	if !mustSync {
		return Plan{Skip: true}
	}
	return allUnits(len(v.Rows))
}

func (f *flown) Bound() int64 { return f.threshold }

func (*flown) PlanPull(v PullView) Plan { return allUnits(len(v.Rows)) }

// ObservePush records the completed synchronization and refreshes the
// (immediately stale) per-worker transmission-time estimate.
func (f *flown) ObservePush(worker int, iter int64, seconds float64) {
	f.lastSync[worker] = iter
	if seconds > 0 {
		f.ownTime[worker] = seconds
	}
}
