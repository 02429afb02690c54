package engine

// ssp is Stale Synchronous Parallel: whole-model push and pull every
// iteration, with the classic fixed staleness gate — a worker entering
// iteration n blocks while n − min(clock) ≥ threshold. Small thresholds
// keep statistical efficiency but stall under bandwidth fades; large ones
// trade accuracy-per-iteration for speed (paper Fig. 1).
type ssp struct {
	threshold int64
}

func newSSP(p Params) *ssp { return &ssp{threshold: int64(p.Threshold)} }

func (*ssp) Name() string { return "ssp" }

func (*ssp) PlanPush(v PushView) Plan { return allUnits(len(v.Rows)) }

func (s *ssp) Bound() int64 { return s.threshold }

func (*ssp) PlanPull(v PullView) Plan { return allUnits(len(v.Rows)) }

func (*ssp) ObservePush(worker int, iter int64, seconds float64) {}
