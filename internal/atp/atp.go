// Package atp implements the Adaptive Transmission Protocol (paper
// Sec. IV-B): the importance metric that orders row transmission (Algo. 3),
// the MTA table that lower-bounds how many rows a straggler must push
// (Table I), and the MTA-time tracker that aligns transmission time across
// workers so no device stalls the team (Algo. 4's scheduling state).
//
// The speculative send itself is executed by the core's drivers: over the
// discrete-event channel a flow is started with a timeout timer and the
// rows delivered are read off the byte count when it fires — exactly the
// "discard the in-flight row at the deadline" semantics of the paper.
package atp

import (
	"cmp"
	"math"
	"slices"
)

// Mode distinguishes the two ends of a synchronization (Algo. 3 lines 3–6):
// workers prioritize stale rows to avoid tripping the server-side staleness
// threshold; the server prioritizes fresh rows because pulls cannot trip it
// and fresher gradients contribute more.
type Mode int

const (
	// Worker mode: importance = f1·mean|g| + f2·(maxIter − iter_i).
	Worker Mode = iota
	// Server mode: importance = f1·mean|g| + f2·(iter_i − minIter).
	Server
)

// Coefficients are the empirical f1/f2 weights of Algo. 3.
type Coefficients struct {
	F1 float64 // weight of the gradient-magnitude term
	F2 float64 // weight of the staleness term
}

// DefaultCoefficients balances the two terms so one stale iteration is
// worth about one standard batch-gradient magnitude.
func DefaultCoefficients() Coefficients { return Coefficients{F1: 1, F2: 1} }

// RowInfo is the scheduler's view of one row (unit).
type RowInfo struct {
	ID      int     // unit index
	MeanAbs float64 // mean absolute accumulated gradient
	Iter    int64   // last iteration this row was pushed/updated
}

// Rank returns the unit IDs sorted by descending importance (Algo. 3).
// rows is not modified. Ties break by ascending ID for determinism.
func Rank(rows []RowInfo, mode Mode, c Coefficients) []int {
	return new(Ranker).Rank(rows, mode, c)
}

// Ranker is Rank sorting in scratch it keeps between calls: once warm it
// allocates nothing. The returned slice is valid until its next Rank.
type Ranker struct {
	scored []scored
	out    []int
}

type scored struct {
	id int
	j  float64
}

// Rank is the package-level Rank into rk's scratch.
func (rk *Ranker) Rank(rows []RowInfo, mode Mode, c Coefficients) []int {
	if len(rows) == 0 {
		return nil
	}
	minIter, maxIter := rows[0].Iter, rows[0].Iter
	for _, r := range rows[1:] {
		if r.Iter < minIter {
			minIter = r.Iter
		}
		if r.Iter > maxIter {
			maxIter = r.Iter
		}
	}
	s := slices.Grow(rk.scored[:0], len(rows))
	for _, r := range rows {
		var staleTerm float64
		if mode == Worker {
			staleTerm = float64(maxIter - r.Iter)
		} else {
			staleTerm = float64(r.Iter - minIter)
		}
		s = append(s, scored{id: r.ID, j: c.F1*r.MeanAbs + c.F2*staleTerm})
	}
	// IDs are distinct, so (j, id) is a total order: no stable sort needed.
	slices.SortFunc(s, func(a, b scored) int {
		switch {
		case a.j == b.j:
			return cmp.Compare(a.id, b.id)
		case a.j > b.j:
			return -1
		}
		return 1
	})
	out := slices.Grow(rk.out[:0], len(rows))
	for _, v := range s {
		out = append(out, v.id)
	}
	rk.scored, rk.out = s, out
	return out
}

// MTA returns the minimum transmission amount for a staleness threshold S:
// the smallest per-iteration fraction P of rows such that every row is
// transmitted before its staleness can reach S, i.e. the solution of
// (1−P)^(S−1) < P (paper Sec. IV-B). The result matches Table I.
func MTA(threshold int) float64 {
	if threshold <= 1 {
		return 1 // every row every iteration — degenerates to BSP
	}
	s := float64(threshold)
	f := func(p float64) float64 { return math.Pow(1-p, s-1) - p }
	// f is strictly decreasing in p on (0,1): bisect for the root, then the
	// MTA is the smallest P (rounded up to 1e-2 like Table I) satisfying
	// the strict inequality.
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Round to two decimals, upward, so the inequality stays satisfied.
	return math.Ceil(hi*100) / 100
}

// MTATable reproduces Table I for thresholds 2..8.
func MTATable() map[int]float64 {
	out := make(map[int]float64)
	for s := 2; s <= 8; s++ {
		out[s] = MTA(s)
	}
	return out
}

// TimeTracker maintains the per-iteration MTA time: the transmission-time
// budget all devices align to. Algo. 4's contract is that each device
// reports the time its MTA rows took and everyone transmits for the
// *straggler's* time, so the tracker keeps the latest report per device and
// the budget is their maximum. A recovering straggler overwrites its own
// stale report on its next iteration, so the budget releases immediately
// when the occlusion ends.
type TimeTracker struct {
	reports []float64
}

// NewTimeTracker creates a tracker for `workers` devices with an initial
// per-device report (seconds).
func NewTimeTracker(workers int, initial float64) *TimeTracker {
	t := &TimeTracker{reports: make([]float64, workers)}
	for i := range t.reports {
		t.reports[i] = initial
	}
	return t
}

// Budget returns the current MTA-time budget: the slowest device's latest
// reported MTA time (GetMTATime in Algo. 4).
func (t *TimeTracker) Budget() float64 {
	b := 0.0
	for _, v := range t.reports {
		if v > b {
			b = v
		}
	}
	return b
}

// Observe records device w's measured time to transmit its MTA rows this
// iteration (UpdateMTATime in Algo. 4).
func (t *TimeTracker) Observe(w int, mtaTime float64) {
	t.reports[w] = mtaTime
}

// Report returns device w's latest reported MTA time.
func (t *TimeTracker) Report(w int) float64 { return t.reports[w] }
