// Package engine is the transport-agnostic synchronization engine: the
// single home of every strategy's *policy* — what to transmit, when a
// worker may advance, how pushed rows merge — shared by the two runtimes
// that execute it (the discrete-event simnet drivers in internal/core and
// the real-socket server/worker in internal/livenet).
//
// A Policy is pure decision logic over views of worker/server state; it
// owns no clock, no links and no membership. The runtimes own those: they
// build the views, transmit what the plans say, gate workers on
// State.CanAdvance, and fold delivered rows through State.Merge (which also
// owns the shrink-to-attached averaging and churn counters). Adding a
// strategy is one Policy implementation in one file; both transports pick it
// up through the registry.
package engine

import (
	"fmt"

	"rog/internal/atp"
)

// Plan is one transmission decision. Units are sent in order; the first
// Must units always complete (the MTA floor and rows at the staleness
// bound), the rest are speculative and may be cut at the budget deadline.
// Non-speculative plans transmit every unit with no deadline. Skip means
// the worker synchronizes nothing this iteration (FLOWN's scheduler).
type Plan struct {
	Skip        bool
	Units       []int
	Must        int
	Speculative bool
}

// PushView is the worker-side state a push decision sees. Rows holds one
// entry per unit, indexed by unit ID (Rows[u].ID == u): the raw mean
// absolute accumulated gradient and the last iteration the unit was
// pushed. Min is the latest known global minimum row version (a socket
// worker learns it from the server's pull-done frame), Budget the current
// MTA-time budget — the straggler's reported transmission time.
type PushView struct {
	Worker int
	Iter   int64
	Rows   []atp.RowInfo
	Min    int64
	Budget float64
	// Scratch, when the view's builder lends one, is where the policy ranks.
	Scratch *PlanScratch
}

// PullView is the server-side state a pull decision sees: Rows[u] carries
// the mean absolute mass accumulated for the worker and the latest
// iteration any worker updated the unit at (the freshness input of the
// server-mode importance metric).
type PullView struct {
	Worker int
	Iter   int64
	Rows   []atp.RowInfo
	Min    int64
	// Scratch: as PushView's.
	Scratch *PlanScratch
}

// PlanScratch is the working storage of one planning call: the view's rows,
// their normalized copy, the ranking, the rows a push plan does not force. It
// belongs to whoever builds the views — a Replica for its pushes, the State
// (under its lock) for pulls — never to the policy, which plans for every
// worker. Nothing in it outlives the call: a plan's Units are allocated,
// because a transmission can outlast its holder's next plan (a crash abandons
// an iteration whose flows still complete).
type PlanScratch struct {
	rows, norm []atp.RowInfo
	ranker     atp.Ranker
	rest       []int
}

// orNew is s, or a throwaway scratch for a view that lent none.
func (s *PlanScratch) orNew() *PlanScratch {
	if s == nil {
		return new(PlanScratch)
	}
	return s
}

// Policy is one synchronization strategy, transport-free. A policy
// instance serves one run; implementations may keep per-run state but must
// mutate it only in PlanPush, PlanPull and ObservePush — each called at
// most once per worker-iteration by every runtime.
type Policy interface {
	// PlanPush decides what worker v.Worker transmits for iteration v.Iter.
	PlanPush(v PushView) Plan
	// Bound is the staleness gate's width, fixed for the run: a worker at
	// iteration iter may proceed while iter − min < Bound(), min the global
	// minimum row version. NewStateSharded reads it once; State.CanAdvance
	// applies it.
	Bound() int64
	// PlanPull decides which averaged rows the server returns to the
	// worker after iteration v.Iter's push.
	PlanPull(v PullView) Plan
	// ObservePush feeds back one completed push: the iteration it
	// synchronized and the seconds it took on the wire.
	ObservePush(worker int, iter int64, seconds float64)
}

// Params configures a policy instance for one run.
type Params struct {
	Workers   int
	Threshold int
	NumUnits  int
	Coeff     atp.Coefficients
}

func (p Params) withDefaults() Params {
	if p.Coeff == (atp.Coefficients{}) {
		p.Coeff = atp.DefaultCoefficients()
	}
	return p
}

// New builds the named policy. Names: "bsp", "ssp", "flown", "rog". BSP is
// SSP at bound 1, whatever p.Threshold says.
func New(name string, p Params) (Policy, error) {
	p = p.withDefaults()
	switch name {
	case "bsp":
		return newSSP(1), nil
	case "ssp":
		return newSSP(p.Threshold), nil
	case "flown":
		return newFLOWN(p), nil
	case "rog":
		return newROG(p), nil
	default:
		return nil, fmt.Errorf("engine: unknown policy %q", name)
	}
}

// allUnits is the whole-model plan shared by the model-granular policies:
// every unit in index order, all mandatory, no deadline.
func allUnits(n int) Plan {
	units := make([]int, n)
	for i := range units {
		units[i] = i
	}
	return Plan{Units: units, Must: n}
}

// normalized copies rows into dst's storage, scaled so the mean of MeanAbs
// is 1: that puts the f1 magnitude term on the same O(1) scale as the
// staleness term for any model (keeps the paper's f1=f2=1 meaningful).
// Rows with zero total mass pass through unscaled.
func normalized(dst, rows []atp.RowInfo) []atp.RowInfo {
	out := append(dst[:0], rows...)
	var meanSum float64
	for _, r := range out {
		meanSum += r.MeanAbs
	}
	if meanSum > 0 {
		norm := float64(len(out)) / meanSum
		for i := range out {
			out[i].MeanAbs *= norm
		}
	}
	return out
}
