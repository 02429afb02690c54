package engine

import (
	"reflect"
	"testing"

	"rog/internal/atp"
)

func params(workers, threshold, units int) Params {
	return Params{Workers: workers, Threshold: threshold, NumUnits: units}.withDefaults()
}

func pushRows(meanAbs []float64, lastPush []int64) []atp.RowInfo {
	rows := make([]atp.RowInfo, len(meanAbs))
	for i := range rows {
		rows[i] = atp.RowInfo{ID: i, MeanAbs: meanAbs[i], Iter: lastPush[i]}
	}
	return rows
}

func TestRegistryKnowsEveryPolicy(t *testing.T) {
	for _, name := range []string{"bsp", "ssp", "flown", "rog"} {
		if _, err := New(name, params(4, 4, 8)); err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
	}
	for _, name := range []string{"nope", "dssp"} {
		if _, err := New(name, params(4, 4, 8)); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
}

func TestGates(t *testing.T) {
	cases := []struct {
		name      string
		iter, min int64
		want      bool
	}{
		{"bsp", 1, 0, false}, // barrier: nobody else pushed yet
		{"bsp", 1, 1, true},
		{"bsp", 2, 1, false}, // bound 1 whatever the threshold says
		{"ssp", 4, 0, false}, // threshold 4: gap 4 blocks
		{"ssp", 4, 1, true},
		{"flown", 4, 0, false},
		{"rog", 4, 0, false},
		{"rog", 4, 1, true},
	}
	for _, c := range cases {
		p, _ := New(c.name, params(4, 4, 8))
		if got := c.iter-c.min < p.Bound(); got != c.want {
			t.Errorf("%s: gate at iter %d, min %d (bound %d) = %v, want %v", c.name, c.iter, c.min, p.Bound(), got, c.want)
		}
	}
}

func TestWholeModelPlans(t *testing.T) {
	for _, name := range []string{"bsp", "ssp"} {
		p, _ := New(name, params(3, 4, 5))
		rows := pushRows([]float64{1, 2, 3, 4, 5}, make([]int64, 5))
		push := p.PlanPush(PushView{Worker: 0, Iter: 1, Rows: rows})
		pull := p.PlanPull(PullView{Worker: 0, Iter: 1, Rows: rows})
		for dir, plan := range []Plan{push, pull} {
			if plan.Skip || plan.Speculative {
				t.Errorf("%s plan %d (push, pull) = %+v, want non-speculative full sync", name, dir, plan)
			}
			if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(plan.Units, want) || plan.Must != 5 {
				t.Errorf("%s plan %d (push, pull) = %+v, want all units mandatory", name, dir, plan)
			}
		}
	}
}

// TestROGPlanForcedRowsAndMTAFloor checks the two mandatory-prefix rules:
// rows at the within-worker staleness bound lead the plan regardless of
// importance, and the floor never drops below the MTA count.
func TestROGPlanForcedRowsAndMTAFloor(t *testing.T) {
	p, _ := New("rog", params(3, 4, 10))
	last := make([]int64, 10)
	mass := make([]float64, 10)
	for i := range last {
		last[i] = 9 // fresh
		mass[i] = float64(10 - i)
	}
	// Units 7 and 8 were last pushed at iteration 7: at n=10 their
	// staleness reaches threshold−1 = 3, so they must go out first.
	last[7], last[8] = 7, 7
	plan := p.PlanPush(PushView{Worker: 1, Iter: 10, Rows: pushRows(mass, last)})
	if !plan.Speculative {
		t.Fatal("ROG push must be speculative")
	}
	if len(plan.Units) != 10 {
		t.Fatalf("plan has %d units, want all 10", len(plan.Units))
	}
	lead := map[int]bool{plan.Units[0]: true, plan.Units[1]: true}
	if !lead[7] || !lead[8] {
		t.Fatalf("forced rows not at the front: %v", plan.Units)
	}
	mta := int(atp.MTA(4)*10 + 0.999)
	if plan.Must < mta || plan.Must < 2 {
		t.Fatalf("must = %d, want ≥ max(MTA count %d, 2 forced)", plan.Must, mta)
	}
}

// TestROGPullSkipsEmptyRows checks the server-mode pull plans only rows
// with accumulated mass, ranked fresher-first.
func TestROGPullSkipsEmptyRows(t *testing.T) {
	p, _ := New("rog", params(3, 4, 4))
	rows := []atp.RowInfo{
		{ID: 0, MeanAbs: 0, Iter: 5},
		{ID: 1, MeanAbs: 1, Iter: 2},
		{ID: 2, MeanAbs: 1, Iter: 9}, // freshest: first out
		{ID: 3, MeanAbs: 0, Iter: 9},
	}
	plan := p.PlanPull(PullView{Worker: 0, Iter: 10, Rows: rows})
	if want := []int{2, 1}; !reflect.DeepEqual(plan.Units, want) {
		t.Fatalf("pull plan = %v, want %v", plan.Units, want)
	}
	if plan.Must > len(plan.Units) {
		t.Fatalf("must %d exceeds plan length %d", plan.Must, len(plan.Units))
	}
}

// TestFLOWNSkipsInsidePeriod drives the scheduler: before any measurement
// a worker syncs every iteration; once measured fast relative to the
// budget it keeps syncing, and measured slow it skips — except when
// skipping would trip the global threshold.
func TestFLOWNSkipsInsidePeriod(t *testing.T) {
	p, _ := New("flown", params(2, 4, 3))
	rows := pushRows([]float64{1, 1, 1}, make([]int64, 3))

	// Unmeasured: must sync.
	if plan := p.PlanPush(PushView{Worker: 0, Iter: 1, Rows: rows, Min: 0, Budget: 10}); plan.Skip {
		t.Fatal("unmeasured worker skipped its first sync")
	}
	p.ObservePush(0, 1, 9.0) // slow: own 9s of a 10s budget → period 3

	if plan := p.PlanPush(PushView{Worker: 0, Iter: 2, Rows: rows, Min: 1, Budget: 10}); !plan.Skip {
		t.Fatal("slow worker inside its period did not skip")
	}
	// Iteration 4: n−lastSync = 3 ≥ period → sync again.
	if plan := p.PlanPush(PushView{Worker: 0, Iter: 4, Rows: rows, Min: 3, Budget: 10}); plan.Skip {
		t.Fatal("worker at its period boundary skipped")
	}
	p.ObservePush(0, 4, 1.0) // now fast → period 1: syncs every iteration
	if plan := p.PlanPush(PushView{Worker: 0, Iter: 5, Rows: rows, Min: 4, Budget: 10}); plan.Skip {
		t.Fatal("fast worker skipped")
	}
	p.ObservePush(0, 5, 9.0)
	// Slow again, but skipping would reach threshold−1 against min: forced.
	if plan := p.PlanPush(PushView{Worker: 0, Iter: 6, Rows: rows, Min: 3, Budget: 10}); plan.Skip {
		t.Fatal("worker about to trip the global threshold skipped")
	}
}

// TestNormalizedPreservesRanking checks normalization rescales mass to
// mean 1 without touching order, and passes zero-mass row sets through.
func TestNormalizedPreservesRanking(t *testing.T) {
	rows := pushRows([]float64{4, 2, 6}, make([]int64, 3))
	out := normalized(nil, rows)
	var sum float64
	for _, r := range out {
		sum += r.MeanAbs
	}
	if diff := sum - 3; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("normalized mass sums to %v, want the row count", sum)
	}
	if out[2].MeanAbs < out[0].MeanAbs || out[0].MeanAbs < out[1].MeanAbs {
		t.Fatal("normalization reordered the masses")
	}
	if rows[0].MeanAbs != 4 {
		t.Fatal("normalized mutated its input")
	}
	zero := normalized(nil, pushRows([]float64{0, 0}, make([]int64, 2)))
	if zero[0].MeanAbs != 0 || zero[1].MeanAbs != 0 {
		t.Fatal("zero-mass rows must pass through")
	}
}

// TestNewRefusesThresholdsBelowTwo: engine.New is the one home of the bound
// contract. SSP, FLOWN and ROG refuse thresholds 0 and 1 (at 0 no gate ever
// opens); BSP's bound is 1 whatever the threshold says.
func TestNewRefusesThresholdsBelowTwo(t *testing.T) {
	for _, name := range []string{"ssp", "flown", "rog"} {
		for _, th := range []int{0, 1} {
			if _, err := New(name, params(4, th, 8)); err == nil {
				t.Errorf("New(%q) accepted threshold %d", name, th)
			}
		}
		if _, err := New(name, params(4, 2, 8)); err != nil {
			t.Errorf("New(%q) refused threshold 2: %v", name, err)
		}
	}
	for _, th := range []int{0, 1, 2, 9} {
		p, err := New("bsp", params(4, th, 8))
		if err != nil || p.Bound() != 1 {
			t.Errorf("New(\"bsp\") at threshold %d: bound %v, err %v; want bound 1", th, p, err)
		}
	}
}
