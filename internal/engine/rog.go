package engine

import (
	"math"

	"rog/internal/atp"
)

// rog is the paper's system: RSP bounded per-row staleness with ATP
// importance-ranked speculative transmission. Pushes rank every unit by
// the worker-mode importance metric, force out rows nearing the
// within-worker staleness bound, and floor the transmission at the MTA
// count (Table I); pulls rank the accumulated averaged rows server-mode
// (fresher first).
type rog struct {
	threshold int64
	mtaCount  int
	coeff     atp.Coefficients
}

func newROG(p Params) *rog {
	return &rog{
		threshold: int64(p.Threshold),
		mtaCount:  int(math.Ceil(atp.MTA(p.Threshold) * float64(p.NumUnits))),
		coeff:     p.Coeff,
	}
}

func (*rog) Name() string { return "rog" }

// PlanPush is Algo. 1 PushGradients with Algo. 3 worker mode: rank all
// units by importance, then force rows whose within-worker staleness would
// reach the threshold to the front — they transmit this iteration, budget
// or not. The MTA floor (Algo. 4) lower-bounds the mandatory prefix.
func (r *rog) PlanPush(v PushView) Plan {
	ranked := atp.Rank(normalized(v.Rows), atp.Worker, r.coeff)
	var forced, rest []int
	for _, u := range ranked {
		if v.Iter-v.Rows[u].Iter >= r.threshold-1 {
			forced = append(forced, u)
		} else {
			rest = append(rest, u)
		}
	}
	plan := append(forced, rest...)
	must := r.mtaCount
	if len(forced) > must {
		must = len(forced)
	}
	if must > len(plan) {
		must = len(plan)
	}
	return Plan{Units: plan, Must: must, Speculative: true}
}

// CanAdvance is the RSP server-side gate (Algo. 2 lines 7–9): a worker at
// iteration n is served only while it is not ≥ threshold ahead of the
// slowest row anywhere.
func (r *rog) CanAdvance(iter, min int64) bool { return iter-min < r.threshold }

// PlanPull ranks the rows with accumulated mass server-mode (Algo. 2
// lines 10–13: fresher rows first — pulls cannot trip the staleness bound,
// so freshness is pure gain) and sends them speculatively under the same
// MTA budget.
func (r *rog) PlanPull(v PullView) Plan {
	rows := make([]atp.RowInfo, 0, len(v.Rows))
	for _, row := range v.Rows {
		if row.MeanAbs != 0 {
			rows = append(rows, row)
		}
	}
	plan := atp.Rank(normalized(rows), atp.Server, r.coeff)
	must := r.mtaCount
	if must > len(plan) {
		must = len(plan)
	}
	return Plan{Units: plan, Must: must, Speculative: true}
}

func (*rog) ObservePush(worker int, iter int64, seconds float64) {}
