package engine

import (
	"math"
	"slices"

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

// PlanPush is Algo. 1 PushGradients with Algo. 3 worker mode: rank all
// units by importance, then force rows whose within-worker staleness would
// reach the threshold to the front — they transmit this iteration, budget
// or not. The MTA floor (Algo. 4) lower-bounds the mandatory prefix.
func (r *rog) PlanPush(v PushView) Plan {
	s := v.Scratch.orNew()
	s.norm = normalized(s.norm, v.Rows)
	ranked := s.ranker.Rank(s.norm, atp.Worker, r.coeff)
	plan, rest := make([]int, 0, len(ranked)), s.rest[:0]
	for _, u := range ranked {
		if v.Iter-v.Rows[u].Iter >= r.threshold-1 {
			plan = append(plan, u)
		} else {
			rest = append(rest, u)
		}
	}
	forced := len(plan)
	s.rest, plan = rest, append(plan, rest...)
	return Plan{Units: plan, Must: min(max(r.mtaCount, forced), len(plan)), Speculative: true}
}

// Bound is the RSP server-side gate (Algo. 2 lines 7–9): a worker at
// iteration n is served only while it is not ≥ threshold ahead of the
// slowest row anywhere.
func (r *rog) Bound() int64 { return r.threshold }

// PlanPull ranks the rows with accumulated mass server-mode (Algo. 2
// lines 10–13: fresher rows first — pulls cannot trip the staleness bound,
// so freshness is pure gain) and sends them speculatively under the same
// MTA budget.
func (r *rog) PlanPull(v PullView) Plan {
	s := v.Scratch.orNew()
	rows := s.norm[:0]
	for _, row := range v.Rows {
		if row.MeanAbs != 0 {
			rows = append(rows, row)
		}
	}
	s.norm = normalized(rows, rows)
	plan := slices.Clone(s.ranker.Rank(s.norm, atp.Server, r.coeff))
	return Plan{Units: plan, Must: min(r.mtaCount, len(plan)), Speculative: true}
}

func (*rog) ObservePush(worker int, iter int64, seconds float64) {}
