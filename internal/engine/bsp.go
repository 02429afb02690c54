package engine

// bsp is Bulk Synchronous Parallel: whole-model push and pull every
// iteration, and a gate equivalent to a full barrier — a worker that
// pushed iteration n is not answered until every attached worker's rows
// reached n. Both runtimes get the lockstep from the gate's bound of 1
// alone: a pull's content is fixed when the gate opens (Peer.HoldPull), so
// replicas stay equal.
type bsp struct{}

func newBSP() *bsp { return &bsp{} }

func (*bsp) Name() string { return "bsp" }

func (*bsp) PlanPush(v PushView) Plan { return allUnits(len(v.Rows)) }

func (*bsp) Bound() int64 { return 1 }

func (*bsp) PlanPull(v PullView) Plan { return allUnits(len(v.Rows)) }

func (*bsp) ObservePush(worker int, iter int64, seconds float64) {}
