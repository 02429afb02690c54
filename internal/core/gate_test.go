package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// admitAll is a frontier no iteration reaches: every parked robot is retried.
const admitAll = math.MaxInt64

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
		g.park(w, 10, 0, func() bool {
			order = append(order, w)
			return true
		})
	}
	g.wake(admitAll, 0, nil)
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
		g.park(w, float64(w), 0, func() bool {
			if ok {
				resumed[w] = true
			}
			return ok
		})
	}
	g.wake(admitAll, 0, nil)
	if !resumed[0] || !resumed[2] || resumed[1] {
		t.Fatalf("resumed = %v, want robots 0 and 2 only", resumed)
	}
	if g[1].retry == nil || g[1].at != 1 || parkedCount(g) != 1 {
		t.Fatalf("robot 1 should remain parked at t=1 (at %v, %d parked)", g[1].at, parkedCount(g))
	}
	// A later wake that succeeds releases it.
	g.park(1, 1, 0, func() bool { return true })
	g.wake(admitAll, 0, nil)
	if parkedCount(g) != 0 {
		t.Fatal("robot 1 never released")
	}
}

// TestGateDropPreventsGhostResume drops a crashed robot and checks its retry
// never runs.
func TestGateDropPreventsGhostResume(t *testing.T) {
	g := make(gateSlots, 6)
	ran := false
	g.park(5, 0, 0, func() bool { ran = true; return true })
	g.drop(5)
	g.wake(admitAll, 0, nil)
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
	g.park(1, 10, 0, func() bool { return true })
	g.park(2, 30, 0, func() bool { return true })
	// Robot 3 stays blocked: no stall is attributed for it.
	g.park(3, 0, 0, func() bool { return false })
	var stall float64
	g.wake(admitAll, 50, &stall)
	if want := (50.0 - 10) + (50 - 30); stall != want {
		t.Fatalf("attributed stall = %v, want %v", stall, want)
	}
	if g[3].retry == nil {
		t.Fatal("blocked robot should remain parked")
	}
	// A wake without a counter attributes nothing.
	g.park(3, 0, 0, func() bool { return true })
	g.wake(admitAll, 70, nil)
	if stall != 60 {
		t.Fatalf("plain wake changed attribution: %v", stall)
	}
}

// TestGateReparkOverwrites re-parks a robot (a retry loop) and checks the
// newest closure and timestamp win.
func TestGateReparkOverwrites(t *testing.T) {
	g := make(gateSlots, 8)
	hits := 0
	g.park(7, 1, 0, func() bool { hits += 100; return true })
	g.park(7, 2, 0, func() bool { hits++; return true })
	var stall float64
	g.wake(admitAll, 5, &stall)
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

func (g *refGate) park(w int, now float64, _ int64, retry func() bool) {
	g.pending[w], g.parkedAt[w] = retry, now
}

func (g *refGate) drop(w int) {
	delete(g.pending, w)
	delete(g.parkedAt, w)
}

func (g *refGate) wake(_ int64, now float64, stall *float64) {
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
		park(w int, now float64, iter int64, retry func() bool)
		drop(w int)
		wake(front int64, now float64, stall *float64)
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
				both(func(g gate, order *[]int, _ *float64) { g.park(w, now, 0, retryFor(order, w)) })
			case op < 5:
				both(func(g gate, _ *[]int, _ *float64) { g.drop(w) })
			case op < 7:
				ready[w] = !ready[w]
			case op < 9:
				both(func(g gate, _ *[]int, stall *float64) { g.wake(admitAll, now, stall) })
			default:
				both(func(g gate, _ *[]int, _ *float64) { g.wake(admitAll, 0, nil) })
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
		g.park(w, float64(w), 0, blocked)
	}
	var stall float64
	if n := testing.AllocsPerRun(100, func() { g.wake(admitAll, 1000, &stall) }); n != 0 {
		t.Fatalf("wake over %d blocked robots: %v allocs, want 0", robots, n)
	}
	if parkedCount(g) != robots || stall != 0 {
		t.Fatalf("blocked wake changed the slots: %d parked, stall %v", parkedCount(g), stall)
	}
}

// wakeAll is the wake before it skipped gates: every parked robot retried,
// in index order. It is the reference the skipping wake is held to.
func (g gateSlots) wakeAll(now float64, stall *float64) {
	for w := range g {
		s := g[w]
		if s.retry == nil {
			continue
		}
		g[w] = gateSlot{}
		if s.retry() {
			if stall != nil {
				*stall += now - s.at
			}
		} else if g[w].retry == nil {
			g[w] = s
		}
	}
}

// gateRig runs the simnet gate over a real engine.State, as synchronize does
// without the links: a robot pushes its next iteration (every unit merges),
// the merges wake the parked gates, and the robot takes its own gate,
// parking on a false. A released robot plans its pull (Peer.HoldPull). wake
// is the wake under test.
type gateRig struct {
	st      *engine.State
	part    *rowsync.Partition
	peers   []*engine.Peer
	slots   gateSlots
	iter    []int64
	crashed []bool
	vals    []float32
	now     float64
	wake    func(r *gateRig, stall *float64)

	released []int   // robots, in release order
	stall    float64 // released by crashes
	waking   bool
	wasted   int // retries a wake ran that failed
}

// gatePart is the rigs' model: a tiny MLP, one unit per row.
func gatePart() *rowsync.Partition {
	proto := nn.NewClassifierMLP(3, []int{4}, 2, tensor.NewRNG(1))
	return rowsync.NewPartition(proto.Params(), rowsync.Rows)
}

// gatePolicy builds the named policy for the rigs at staleness bound 4.
func gatePolicy(t *testing.T, name string, robots int) engine.Policy {
	t.Helper()
	pol, err := engine.New(name, engine.Params{Workers: robots, Threshold: 4, NumUnits: gatePart().NumUnits()})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func newGateRig(pol engine.Policy, robots int, wake func(r *gateRig, stall *float64)) *gateRig {
	part := gatePart()
	r := &gateRig{
		st:      engine.NewStateSharded(pol, part, robots, 1, 1),
		part:    part,
		slots:   make(gateSlots, robots),
		iter:    make([]int64, robots),
		crashed: make([]bool, robots),
		vals:    make([]float32, part.MaxUnitLen()),
		wake:    wake,
	}
	for w := 0; w < robots; w++ {
		r.peers = append(r.peers, engine.NewPeer(w, part))
	}
	for i := range r.vals {
		r.vals[i] = float32(i%5) - 2
	}
	return r
}

func skipWake(r *gateRig, stall *float64) { r.slots.wake(r.st.Frontier(), r.now, stall) }
func allWake(r *gateRig, stall *float64)  { r.slots.wakeAll(r.now, stall) }

func (r *gateRig) retry(w int, n int64) func() bool {
	return func() bool {
		if !r.peers[w].Gate(r.st, n, r.now) {
			if r.waking {
				r.wasted++
			}
			return false
		}
		r.released = append(r.released, w)
		r.peers[w].HoldPull(r.st, n)
		return true
	}
}

func (r *gateRig) doWake(stall *float64) {
	r.waking = true
	r.wake(r, stall)
	r.waking = false
}

// push runs robot w's next iteration up to its gate.
func (r *gateRig) push(w int) {
	r.iter[w]++
	n := r.iter[w]
	for u := 0; u < r.part.NumUnits(); u++ {
		r.st.Merge(w, u, r.vals[:r.part.Unit(u).Len], n)
	}
	r.doWake(nil)
	if retry := r.retry(w, n); !retry() {
		r.slots.park(w, r.now, n, retry)
	}
}

// crash detaches robot w, drops its slot and charges what the detach
// releases to r.stall, as crashWorker does.
func (r *gateRig) crash(w int) {
	r.crashed[w] = true
	r.peers[w].Leave(r.st)
	r.slots.drop(w)
	r.doWake(&r.stall)
}

// free lists the robots that may push: alive and not parked.
func (r *gateRig) free() []int {
	var out []int
	for w, s := range r.slots {
		if !r.crashed[w] && s.retry == nil {
			out = append(out, w)
		}
	}
	return out
}

// alive lists the robots that have not crashed.
func (r *gateRig) alive() []int {
	var out []int
	for w, c := range r.crashed {
		if !c {
			out = append(out, w)
		}
	}
	return out
}

// slowest is the robot of ws with the lowest iteration, the lowest index
// among equals.
func (r *gateRig) slowest(ws []int) int {
	best := ws[0]
	for _, w := range ws[1:] {
		if r.iter[w] < r.iter[best] {
			best = w
		}
	}
	return best
}

// sameAs reports where r and ref differ: releases, stall, or parked slots.
func (r *gateRig) sameAs(ref *gateRig) error {
	if !slices.Equal(r.released, ref.released) {
		return fmt.Errorf("released %v, reference %v", r.released, ref.released)
	}
	if r.stall != ref.stall {
		return fmt.Errorf("stall %v, reference %v", r.stall, ref.stall)
	}
	for w, s := range r.slots {
		if q := ref.slots[w]; (s.retry == nil) != (q.retry == nil) || s.at != q.at || s.iter != q.iter {
			return fmt.Errorf("robot %d parked=%v at %v iter %d, reference parked=%v at %v iter %d",
				w, s.retry != nil, s.at, s.iter, q.retry != nil, q.at, q.iter)
		}
	}
	return nil
}

// TestGateWakeMatchesRetryEveryone drives the skipping wake and the
// retry-everyone reference over two real engine states, for every policy,
// with one seeded script of pushes and crashes across 12 robots, and
// requires the same releases in the same order, the same crash-released
// stall, bit for bit, and the same parked slots after every step. The
// skipping wake must run no retry that fails: it retries exactly the gates
// its bound admits.
func TestGateWakeMatchesRetryEveryone(t *testing.T) {
	const robots = 12
	for _, policy := range []string{"bsp", "ssp", "flown", "rog"} {
		for seed := uint64(1); seed <= 4; seed++ {
			got := newGateRig(gatePolicy(t, policy, robots), robots, skipWake)
			ref := newGateRig(gatePolicy(t, policy, robots), robots, allWake)
			r := tensor.NewRNG(seed)
			crashes := 0
			for step := 0; step < 600; step++ {
				dt := r.Float64()
				got.now += dt
				ref.now += dt
				if r.Intn(60) == 0 && crashes < 3 {
					if w := got.slowest(got.alive()); !got.crashed[w] {
						crashes++
						got.crash(w)
						ref.crash(w)
					}
				} else {
					free := got.free()
					w := free[r.Intn(len(free))]
					if r.Intn(2) == 0 {
						w = got.slowest(free) // runs of these keep the team in step
					}
					got.push(w)
					ref.push(w)
				}
				if err := got.sameAs(ref); err != nil {
					t.Fatalf("%s seed %d step %d: %v", policy, seed, step, err)
				}
				if got.wasted != 0 {
					t.Fatalf("%s seed %d step %d: the skipping wake ran %d retries that failed", policy, seed, step, got.wasted)
				}
			}
			if len(ref.released) < 100 || ref.wasted == 0 {
				t.Fatalf("%s seed %d: script exercised too little (%d releases, %d failed reference retries)",
					policy, seed, len(ref.released), ref.wasted)
			}
		}
	}
}

// BenchmarkGateWake times one wake over a fleet's gate: 256 robots on an
// SSP-4 state at minimum 0, 64 of them parked at iteration 4, which the gate
// holds back — the wake that follows a push that moved nothing. "skip" is
// the wake; "retry-all" the retry-everyone reference, one blocked gate
// check per parked robot.
func BenchmarkGateWake(b *testing.B) {
	const robots, parked = 256, 64
	for _, c := range []struct {
		name string
		wake func(r *gateRig, stall *float64)
	}{{"skip", skipWake}, {"retry-all", allWake}} {
		b.Run(c.name, func(b *testing.B) {
			pol, err := engine.New("ssp", engine.Params{Workers: robots, Threshold: 4, NumUnits: gatePart().NumUnits()})
			if err != nil {
				b.Fatal(err)
			}
			r := newGateRig(pol, robots, c.wake)
			for w := 0; w < robots; w += robots / parked {
				r.slots.park(w, 0, 4, r.retry(w, 4))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.doWake(nil)
			}
			if len(r.released) != 0 {
				b.Fatalf("%d robots released", len(r.released))
			}
		})
	}
}
