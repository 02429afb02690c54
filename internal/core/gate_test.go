package core

import (
	"slices"
	"sort"
	"testing"

	"rog/internal/tensor"
)

// parkedCount reports how many robots are parked on g.
func parkedCount(g gateSlots) int {
	n := 0
	for _, s := range g {
		if s.retry != nil {
			n++
		}
	}
	return n
}

// TestGateWakeOrderDeterministic parks robots in scrambled order and checks
// that a wake retries them in ascending worker index — the property the
// simnet runtime's bit-for-bit determinism rests on.
func TestGateWakeOrderDeterministic(t *testing.T) {
	g := make(gateSlots, 4)
	var order []int
	for _, w := range []int{3, 0, 2, 1} {
		g.park(w, 10, func() bool {
			order = append(order, w)
			return true
		})
	}
	g.wake(0, nil)
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if n := parkedCount(g); n != 0 {
		t.Fatalf("%d robots still parked after everyone resumed", n)
	}
}

// TestGateRetryKeepsBlockedRobots checks that a retry returning false keeps
// the robot parked with its original park time while resumed robots leave.
func TestGateRetryKeepsBlockedRobots(t *testing.T) {
	g := make(gateSlots, 3)
	resumed := map[int]bool{}
	for w, ok := range []bool{true, false, true} {
		g.park(w, float64(w), func() bool {
			if ok {
				resumed[w] = true
			}
			return ok
		})
	}
	g.wake(0, nil)
	if !resumed[0] || !resumed[2] || resumed[1] {
		t.Fatalf("resumed = %v, want robots 0 and 2 only", resumed)
	}
	if g[1].retry == nil || g[1].at != 1 || parkedCount(g) != 1 {
		t.Fatalf("robot 1 should remain parked at t=1 (at %v, %d parked)", g[1].at, parkedCount(g))
	}
	// A later wake that succeeds releases it.
	g.park(1, 1, func() bool { return true })
	g.wake(0, nil)
	if parkedCount(g) != 0 {
		t.Fatal("robot 1 never released")
	}
}

// TestGateDropPreventsGhostResume drops a crashed robot and checks its retry
// never runs.
func TestGateDropPreventsGhostResume(t *testing.T) {
	g := make(gateSlots, 6)
	ran := false
	g.park(5, 0, func() bool { ran = true; return true })
	g.drop(5)
	g.wake(0, nil)
	if ran {
		t.Fatal("dropped robot's retry ran — a ghost resumed")
	}
	if g[5].retry != nil {
		t.Fatal("dropped robot still parked")
	}
}

// TestGateStallAttribution wakes parked robots with a stall counter and
// checks each resumed robot contributes exactly its parked duration — the
// detach-stall accounting of the churn experiment.
func TestGateStallAttribution(t *testing.T) {
	g := make(gateSlots, 4)
	// Robot 1 parked at t=10, robot 2 at t=30; the detach wakes at t=50.
	g.park(1, 10, func() bool { return true })
	g.park(2, 30, func() bool { return true })
	// Robot 3 stays blocked: no stall is attributed for it.
	g.park(3, 0, func() bool { return false })
	var stall float64
	g.wake(50, &stall)
	if want := (50.0 - 10) + (50 - 30); stall != want {
		t.Fatalf("attributed stall = %v, want %v", stall, want)
	}
	if g[3].retry == nil {
		t.Fatal("blocked robot should remain parked")
	}
	// A wake without a counter attributes nothing.
	g.park(3, 0, func() bool { return true })
	g.wake(70, nil)
	if stall != 60 {
		t.Fatalf("plain wake changed attribution: %v", stall)
	}
}

// TestGateReparkOverwrites re-parks a robot (a retry loop) and checks the
// newest closure and timestamp win.
func TestGateReparkOverwrites(t *testing.T) {
	g := make(gateSlots, 8)
	hits := 0
	g.park(7, 1, func() bool { hits += 100; return true })
	g.park(7, 2, func() bool { hits++; return true })
	var stall float64
	g.wake(5, &stall)
	if hits != 1 {
		t.Fatalf("stale closure ran (hits=%d)", hits)
	}
	if stall != 3 {
		t.Fatalf("stall attributed from stale park time: %v", stall)
	}
}

// refGate is the gate as it was before it became a slot per robot — maps
// and a sort per wake — kept as the reference model the slots are checked
// against.
type refGate struct {
	pending  map[int]func() bool
	parkedAt map[int]float64
}

func newRefGate() *refGate {
	return &refGate{pending: map[int]func() bool{}, parkedAt: map[int]float64{}}
}

func (g *refGate) park(w int, now float64, retry func() bool) {
	g.pending[w], g.parkedAt[w] = retry, now
}

func (g *refGate) drop(w int) {
	delete(g.pending, w)
	delete(g.parkedAt, w)
}

func (g *refGate) wake(now float64, stall *float64) {
	workers := make([]int, 0, len(g.pending))
	for w := range g.pending {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		if g.pending[w]() {
			if stall != nil {
				*stall += now - g.parkedAt[w]
			}
			g.drop(w)
		}
	}
}

// TestGateMatchesReferenceModel drives the slots and the reference model
// with one seeded random script of park, drop and wake — with and without a
// stall counter — over a few robots (so re-parks and drops of empty slots
// occur), and requires the same resume sequence, the same attributed stall,
// bit for bit, and the same parked set and stamps after every step.
func TestGateMatchesReferenceModel(t *testing.T) {
	type gate interface {
		park(w int, now float64, retry func() bool)
		drop(w int)
		wake(now float64, stall *float64)
	}
	const robots = 12
	for seed := uint64(1); seed <= 20; seed++ {
		slots, ref := make(gateSlots, robots), newRefGate()
		var (
			ready     [robots]bool // the predicate each retry evaluates
			gotOrder  []int
			wantOrder []int
			gotStall  float64
			wantStall float64
			now       float64
		)
		retryFor := func(order *[]int, w int) func() bool {
			return func() bool {
				if ready[w] {
					*order = append(*order, w)
				}
				return ready[w]
			}
		}
		both := func(f func(g gate, order *[]int, stall *float64)) {
			f(slots, &gotOrder, &gotStall)
			f(ref, &wantOrder, &wantStall)
		}
		r := tensor.NewRNG(seed)
		for step := 0; step < 3000; step++ {
			now += r.Float64()
			w := r.Intn(robots)
			switch op := r.Intn(10); {
			case op < 4:
				both(func(g gate, order *[]int, _ *float64) { g.park(w, now, retryFor(order, w)) })
			case op < 5:
				both(func(g gate, _ *[]int, _ *float64) { g.drop(w) })
			case op < 7:
				ready[w] = !ready[w]
			case op < 9:
				both(func(g gate, _ *[]int, stall *float64) { g.wake(now, stall) })
			default:
				both(func(g gate, _ *[]int, _ *float64) { g.wake(0, nil) })
			}
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("seed %d step %d: resume order diverged:\n got  %v\n want %v", seed, step, gotOrder, wantOrder)
			}
			if gotStall != wantStall {
				t.Fatalf("seed %d step %d: attributed stall %v, model %v", seed, step, gotStall, wantStall)
			}
			for k, s := range slots {
				_, want := ref.pending[k]
				if (s.retry != nil) != want || (want && s.at != ref.parkedAt[k]) {
					t.Fatalf("seed %d step %d: robot %d parked=%v at %v, model parked=%v at %v",
						seed, step, k, s.retry != nil, s.at, want, ref.parkedAt[k])
				}
			}
		}
		if len(gotOrder) < 100 || gotStall == 0 {
			t.Fatalf("seed %d: script exercised too little (%d resumes, stall %v)", seed, len(gotOrder), gotStall)
		}
	}
}

// TestGateWakeAllocatesNothing guards the gate's hot path at fleet size: a
// wake that finds 256 robots parked and none resumable retries and restores
// each in place.
func TestGateWakeAllocatesNothing(t *testing.T) {
	const robots = 256
	g := make(gateSlots, robots)
	blocked := func() bool { return false }
	for w := robots - 1; w >= 0; w-- {
		g.park(w, float64(w), blocked)
	}
	var stall float64
	if n := testing.AllocsPerRun(100, func() { g.wake(1000, &stall) }); n != 0 {
		t.Fatalf("wake over %d blocked robots: %v allocs, want 0", robots, n)
	}
	if parkedCount(g) != robots || stall != 0 {
		t.Fatalf("blocked wake changed the slots: %d parked, stall %v", parkedCount(g), stall)
	}
}
