package engine

// ssp is Stale Synchronous Parallel: whole-model push and pull every
// iteration, with the classic fixed staleness gate — a worker entering
// iteration n blocks while n − min(clock) ≥ threshold. Small thresholds
// keep statistical efficiency but stall under bandwidth fades; large ones
// trade accuracy-per-iteration for speed (paper Fig. 1).
//
// At threshold 1 it is Bulk Synchronous Parallel: a worker that pushed
// iteration n is not answered until every attached worker's rows reached n.
// Both runtimes get the lockstep from the bound alone: a pull's content is
// fixed when the gate opens (Peer.HoldPull), so replicas stay equal.
type ssp struct {
	threshold int64
}

func newSSP(threshold int) *ssp { return &ssp{threshold: int64(threshold)} }

func (*ssp) PlanPush(v PushView) Plan { return allUnits(len(v.Rows)) }

func (s *ssp) Bound() int64 { return s.threshold }

func (*ssp) PlanPull(v PullView) Plan { return allUnits(len(v.Rows)) }

func (*ssp) ObservePush(worker int, iter int64, seconds float64) {}
