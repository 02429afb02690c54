package atp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestMTAMatchesPaperTable pins Table I of the paper.
func TestMTAMatchesPaperTable(t *testing.T) {
	want := map[int]float64{2: 0.5, 3: 0.38, 4: 0.32, 5: 0.28, 6: 0.25, 7: 0.22, 8: 0.2}
	got := MTATable()
	for s, w := range want {
		if math.Abs(got[s]-w) > 0.011 {
			t.Errorf("MTA(%d)=%v want %v", s, got[s], w)
		}
	}
}

func TestMTASatisfiesInequality(t *testing.T) {
	// (1-P)^(S-1) ≤ P must hold for the returned P, for all thresholds
	// (equality only at the exact root, e.g. P=0.5 for S=2 as in Table I).
	for s := 2; s <= 40; s++ {
		p := MTA(s)
		if math.Pow(1-p, float64(s-1)) > p+1e-9 {
			t.Errorf("threshold %d: MTA %v violates inequality", s, p)
		}
		if p <= 0 || p > 1 {
			t.Errorf("threshold %d: MTA %v out of range", s, p)
		}
	}
}

func TestMTAMonotoneDecreasing(t *testing.T) {
	prev := MTA(2)
	for s := 3; s <= 30; s++ {
		cur := MTA(s)
		if cur > prev {
			t.Fatalf("MTA(%d)=%v > MTA(%d)=%v", s, cur, s-1, prev)
		}
		prev = cur
	}
}

func TestMTADegenerateThreshold(t *testing.T) {
	if MTA(1) != 1 || MTA(0) != 1 {
		t.Fatal("threshold ≤1 must require full transmission")
	}
}

func TestRankWorkerPrioritizesStale(t *testing.T) {
	rows := []RowInfo{
		{ID: 0, MeanAbs: 0.1, Iter: 10}, // fresh, small gradient
		{ID: 1, MeanAbs: 0.1, Iter: 5},  // stale, small gradient
		{ID: 2, MeanAbs: 0.1, Iter: 10},
	}
	order := Rank(rows, Worker, Coefficients{F1: 1, F2: 1})
	if order[0] != 1 {
		t.Fatalf("worker mode should front the stale row: %v", order)
	}
}

func TestRankServerPrioritizesFresh(t *testing.T) {
	rows := []RowInfo{
		{ID: 0, MeanAbs: 0.1, Iter: 5},
		{ID: 1, MeanAbs: 0.1, Iter: 10}, // freshest
		{ID: 2, MeanAbs: 0.1, Iter: 5},
	}
	order := Rank(rows, Server, Coefficients{F1: 1, F2: 1})
	if order[0] != 1 {
		t.Fatalf("server mode should front the fresh row: %v", order)
	}
}

func TestRankMagnitudeBreaksTies(t *testing.T) {
	rows := []RowInfo{
		{ID: 0, MeanAbs: 0.5, Iter: 7},
		{ID: 1, MeanAbs: 2.0, Iter: 7}, // biggest gradient
		{ID: 2, MeanAbs: 1.0, Iter: 7},
	}
	order := Rank(rows, Worker, DefaultCoefficients())
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("magnitude ordering broken: %v", order)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	rows := []RowInfo{
		{ID: 2, MeanAbs: 1, Iter: 3},
		{ID: 0, MeanAbs: 1, Iter: 3},
		{ID: 1, MeanAbs: 1, Iter: 3},
	}
	order := Rank(rows, Server, DefaultCoefficients())
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tie break not by ID: %v", order)
	}
}

func TestRankEmptyAndPermutation(t *testing.T) {
	if Rank(nil, Worker, DefaultCoefficients()) != nil {
		t.Fatal("empty rank should be nil")
	}
	f := func(seeds []uint8) bool {
		rows := make([]RowInfo, len(seeds))
		for i, s := range seeds {
			rows[i] = RowInfo{ID: i, MeanAbs: float64(s%16) / 4, Iter: int64(s % 5)}
		}
		order := Rank(rows, Worker, DefaultCoefficients())
		if len(order) != len(rows) {
			return false
		}
		seen := make(map[int]bool)
		for _, id := range order {
			if id < 0 || id >= len(rows) || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank output is invariant to input order (stable semantics).
func TestRankOrderInvariant(t *testing.T) {
	rows := []RowInfo{
		{ID: 0, MeanAbs: 0.3, Iter: 4},
		{ID: 1, MeanAbs: 0.9, Iter: 2},
		{ID: 2, MeanAbs: 0.1, Iter: 8},
		{ID: 3, MeanAbs: 0.5, Iter: 6},
	}
	a := Rank(rows, Server, DefaultCoefficients())
	rev := []RowInfo{rows[3], rows[2], rows[1], rows[0]}
	b := Rank(rev, Server, DefaultCoefficients())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank depends on input order: %v vs %v", a, b)
		}
	}
}

// refRank is Rank as it was before it sorted in a Ranker's scratch: fresh
// slices and sort.Slice. The reference the Ranker is checked against.
func refRank(rows []RowInfo, mode Mode, c Coefficients) []int {
	minIter, maxIter := rows[0].Iter, rows[0].Iter
	for _, r := range rows[1:] {
		minIter, maxIter = min(minIter, r.Iter), max(maxIter, r.Iter)
	}
	s := make([]scored, len(rows))
	for i, r := range rows {
		staleTerm := float64(r.Iter - minIter)
		if mode == Worker {
			staleTerm = float64(maxIter - r.Iter)
		}
		s[i] = scored{id: r.ID, j: c.F1*r.MeanAbs + c.F2*staleTerm}
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].j != s[b].j {
			return s[a].j > s[b].j
		}
		return s[a].id < s[b].id
	})
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = v.id
	}
	return out
}

// TestRankerMatchesReference ranks seeded random row sets — heavy with
// ties, at sizes on both sides of every cutoff the sort switches strategy
// at — through one warm Ranker and through the reference, in both modes.
func TestRankerMatchesReference(t *testing.T) {
	var rk Ranker
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 12, 13, 50, 51, 163, 700} {
		for trial := 0; trial < 20; trial++ {
			rows := make([]RowInfo, n)
			for i := range rows {
				rows[i] = RowInfo{ID: i, MeanAbs: float64(r.Intn(7)) / 4, Iter: int64(r.Intn(5))}
			}
			for _, mode := range []Mode{Worker, Server} {
				got, want := rk.Rank(rows, mode, DefaultCoefficients()), refRank(rows, mode, DefaultCoefficients())
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d trial %d mode %d:\n got  %v\n want %v", n, trial, mode, got, want)
				}
			}
		}
	}
}

// TestRankerWarmAllocatesNothing guards the per-iteration ranking: once a
// Ranker has sorted a plan of this size, the next costs no allocation.
func TestRankerWarmAllocatesNothing(t *testing.T) {
	rows := make([]RowInfo, 163) // the fleet model's unit count
	for i := range rows {
		rows[i] = RowInfo{ID: i, MeanAbs: float64(i*37%101) / 50, Iter: int64(i % 8)}
	}
	var rk Ranker
	rk.Rank(rows, Worker, DefaultCoefficients())
	if n := testing.AllocsPerRun(100, func() { rk.Rank(rows, Worker, DefaultCoefficients()) }); n != 0 {
		t.Fatalf("warm Ranker.Rank: %v allocs, want 0", n)
	}
}

func TestTimeTracker(t *testing.T) {
	tr := NewTimeTracker(3, 2.0)
	if tr.Budget() != 2.0 {
		t.Fatal("initial budget")
	}
	// Worker 1 becomes the straggler: everyone aligns to its report.
	tr.Observe(1, 6.0)
	tr.Observe(0, 0.5)
	tr.Observe(2, 0.8)
	if tr.Budget() != 6.0 {
		t.Fatalf("budget=%v want straggler's 6.0", tr.Budget())
	}
	if tr.Report(1) != 6.0 || tr.Report(0) != 0.5 {
		t.Fatal("per-device reports wrong")
	}
	// The straggler recovers and overwrites its own report: the budget
	// releases immediately.
	tr.Observe(1, 0.6)
	if math.Abs(tr.Budget()-0.8) > 1e-12 {
		t.Fatalf("budget=%v want 0.8 after recovery", tr.Budget())
	}
}
