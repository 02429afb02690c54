package engine

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"rog/internal/tensor"
)

// TestWaitListWakeOrderDeterministic parks workers in scrambled order and
// checks that a wake retries them in ascending worker index — the property
// the simnet runtime's bit-for-bit determinism rests on.
func TestWaitListWakeOrderDeterministic(t *testing.T) {
	wl := NewWaitList()
	var order []int
	for _, w := range []int{3, 0, 2, 1} {
		w := w
		wl.Park(w, 10.0, func() bool {
			order = append(order, w)
			return true
		})
	}
	wl.Wake()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if wl.Len() != 0 {
		t.Fatalf("%d workers still parked after everyone resumed", wl.Len())
	}
}

// TestWaitListRetryKeepsBlockedWorkers checks that a retry returning false
// keeps the worker parked (with its original park time) while resumed
// workers leave the list.
func TestWaitListRetryKeepsBlockedWorkers(t *testing.T) {
	wl := NewWaitList()
	resumed := map[int]bool{}
	park := func(w int, ok bool) {
		wl.Park(w, float64(w), func() bool {
			if ok {
				resumed[w] = true
			}
			return ok
		})
	}
	park(0, true)
	park(1, false)
	park(2, true)
	wl.Wake()
	if !resumed[0] || !resumed[2] || resumed[1] {
		t.Fatalf("resumed = %v, want workers 0 and 2 only", resumed)
	}
	if !wl.Parked(1) || wl.Len() != 1 {
		t.Fatalf("worker 1 should remain parked (len=%d)", wl.Len())
	}
	// A later wake that succeeds releases it.
	wl.Drop(1)
	wl.Park(1, 1, func() bool { return true })
	wl.Wake()
	if wl.Len() != 0 {
		t.Fatal("worker 1 never released")
	}
}

// TestWaitListDropPreventsGhostResume drops a crashed worker and checks
// its retry never runs.
func TestWaitListDropPreventsGhostResume(t *testing.T) {
	wl := NewWaitList()
	ran := false
	wl.Park(5, 0, func() bool { ran = true; return true })
	wl.Drop(5)
	wl.Wake()
	if ran {
		t.Fatal("dropped worker's retry ran — a ghost resumed")
	}
	if wl.Parked(5) {
		t.Fatal("dropped worker still parked")
	}
}

// TestWaitListStallAttribution wakes parked workers through the
// attributing path and checks each resumed worker contributes exactly its
// parked duration — the detach-stall accounting of the churn experiment.
func TestWaitListStallAttribution(t *testing.T) {
	wl := NewWaitList()
	// Worker 1 parked at t=10, worker 2 at t=30; the detach wakes at t=50.
	wl.Park(1, 10, func() bool { return true })
	wl.Park(2, 30, func() bool { return true })
	// Worker 3 stays blocked: no stall is attributed for it.
	wl.Park(3, 0, func() bool { return false })
	var stall float64
	wl.WakeAttributing(50, &stall)
	if want := (50.0 - 10) + (50 - 30); stall != want {
		t.Fatalf("attributed stall = %v, want %v", stall, want)
	}
	if !wl.Parked(3) {
		t.Fatal("blocked worker should remain parked")
	}
	// The plain wake attributes nothing.
	wl.Drop(3)
	wl.Park(3, 0, func() bool { return true })
	wl.Wake()
	if stall != 60 {
		t.Fatalf("plain wake changed attribution: %v", stall)
	}
}

// TestWaitListReparkOverwrites re-parks a worker (a retry loop) and checks
// the newest closure and timestamp win.
func TestWaitListReparkOverwrites(t *testing.T) {
	wl := NewWaitList()
	hits := 0
	wl.Park(7, 1, func() bool { hits += 100; return true })
	wl.Park(7, 2, func() bool { hits++; return true })
	var stall float64
	wl.WakeAttributing(5, &stall)
	if hits != 1 {
		t.Fatalf("stale closure ran (hits=%d)", hits)
	}
	if stall != 3 {
		t.Fatalf("stall attributed from stale park time: %v", stall)
	}
}

// TestWaitListConcurrentWakeWait hammers one list the way the sharded
// socket server does: worker goroutines park (and re-park after spurious
// resumes) while several shard goroutines concurrently Wake. Each worker's
// predicate releases when the shared gate reaches its threshold, and must
// resume exactly once — the claim-run-restore protocol in TryResume may run
// a still-blocked retry many times, but a released one can never be run
// twice or lost. Run under -race this is satellite coverage for concurrent
// wake/wait from multiple shard goroutines.
func TestWaitListConcurrentWakeWait(t *testing.T) {
	const (
		workers = 32
		wakers  = 4
	)
	wl := NewWaitList()
	var (
		gate    atomic.Int64
		resumed [workers]atomic.Int32
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wl.Park(w, float64(w), func() bool {
			if gate.Load() < int64(w/4) {
				return false
			}
			resumed[w].Add(1)
			return true
		})
	}
	for k := 0; k < wakers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				wl.Wake()
			}
		}()
	}
	for g := int64(0); g <= workers/4; g++ {
		gate.Store(g)
		// Wake from the driver too — a shard merging while others wake.
		wl.Wake()
	}
	// Every predicate is now satisfied; drain whatever the racing wakers
	// have not yet claimed, then stop them.
	for wl.Len() > 0 {
		wl.Wake()
	}
	done.Store(true)
	wg.Wait()
	// A waker that claimed an entry before its gate opened puts it back
	// after Len read zero above; with the wakers gone, one more pass is
	// the whole remainder.
	wl.Wake()

	for w := 0; w < workers; w++ {
		if n := resumed[w].Load(); n != 1 {
			t.Fatalf("worker %d resumed %d times, want exactly once", w, n)
		}
	}
	if wl.Len() != 0 {
		t.Fatalf("%d workers still parked", wl.Len())
	}
}

// TestWaitListConcurrentParkDrop interleaves Park, Drop and Wake across
// goroutines: droppable workers whose predicate never releases must all be
// gone at the end (no ghost entries), while late-parked workers with an
// always-true predicate must all resume.
func TestWaitListConcurrentParkDrop(t *testing.T) {
	const (
		blocked = 16 // parked with a never-true predicate, then dropped
		late    = 16 // parked mid-storm with an always-true predicate
	)
	wl := NewWaitList()
	var (
		resumed [late]atomic.Int32
		done    atomic.Bool
		wgWork  sync.WaitGroup
		wgWake  sync.WaitGroup
	)
	for w := 0; w < blocked; w++ {
		wl.Park(w, 0, func() bool { return false })
	}
	wgWake.Add(1)
	go func() {
		defer wgWake.Done()
		for !done.Load() {
			wl.Wake()
		}
	}()
	wgWork.Add(1)
	go func() {
		defer wgWork.Done()
		for w := 0; w < late; w++ {
			w := w
			wl.Park(blocked+w, 0, func() bool {
				resumed[w].Add(1)
				return true
			})
		}
	}()
	wgWork.Add(1)
	go func() {
		defer wgWork.Done()
		for w := 0; w < blocked; w++ {
			wl.Drop(w)
		}
	}()
	wgWork.Wait()
	done.Store(true)
	wgWake.Wait()

	// The wake storm is over; anything still parked is either a ghost
	// (bug) or a late worker the storm missed (drain it now).
	wl.Wake()
	for w := 0; w < blocked; w++ {
		if wl.Parked(w) {
			t.Fatalf("dropped worker %d still parked", w)
		}
	}
	for w := 0; w < late; w++ {
		if n := resumed[w].Load(); n != 1 {
			t.Fatalf("late worker %d resumed %d times, want exactly once", w, n)
		}
	}
	if wl.Len() != 0 {
		t.Fatalf("%d entries left parked", wl.Len())
	}
}

// refWaitList is the wait list as it was before it became a sorted slice —
// three maps and a sort per wake — kept here as the reference model the
// slice is checked against (single-threaded: the model has no lock).
type refWaitList struct {
	pending  map[int]func() bool
	parkedAt map[int]float64
	dropped  map[int]bool
}

func newRefWaitList() *refWaitList {
	return &refWaitList{pending: map[int]func() bool{}, parkedAt: map[int]float64{}, dropped: map[int]bool{}}
}

func (wl *refWaitList) Park(w int, now float64, retry func() bool) {
	wl.pending[w], wl.parkedAt[w] = retry, now
	delete(wl.dropped, w)
}

func (wl *refWaitList) Drop(w int) {
	delete(wl.pending, w)
	delete(wl.parkedAt, w)
	wl.dropped[w] = true
}

func (wl *refWaitList) TryResume(w int, now float64, stall *float64) bool {
	retry, ok := wl.pending[w]
	if !ok {
		return false
	}
	at := wl.parkedAt[w]
	delete(wl.pending, w)
	delete(wl.parkedAt, w)
	ok = retry()
	wasDropped := wl.dropped[w]
	delete(wl.dropped, w)
	if !ok && !wasDropped {
		if _, reparked := wl.pending[w]; !reparked {
			wl.pending[w], wl.parkedAt[w] = retry, at
		}
	}
	if ok && stall != nil {
		*stall += now - at
	}
	return ok
}

func (wl *refWaitList) WakeAttributing(now float64, stall *float64) {
	workers := make([]int, 0, len(wl.pending))
	for w := range wl.pending {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		wl.TryResume(w, now, stall)
	}
}

// TestWaitListMatchesReferenceModel drives the wait list and the reference
// model with one seeded random script of Park, Drop, TryResume and Wake —
// plain and stall-attributing — over a small key space (so re-parks, drops
// of absent keys and tombstones left by a drop all occur) and requires the
// same resume sequence, the same attributed stall, bit for bit, and the same
// parked set after every step. A retry here does what the runtimes' do — it
// evaluates a predicate, sometimes dropping or re-parking its own key the
// way a racing crash or a retry loop would — but parks no other key: a wake
// walks the live list where the model snapshots it, and only a retry that
// parked a stranger mid-wake could tell the two apart.
func TestWaitListMatchesReferenceModel(t *testing.T) {
	type list interface {
		Park(w int, now float64, retry func() bool)
		Drop(w int)
		TryResume(w int, now float64, stall *float64) bool
		WakeAttributing(now float64, stall *float64)
	}
	const keys = 12
	for seed := uint64(1); seed <= 20; seed++ {
		wl, ref := NewWaitList(), newRefWaitList()
		var (
			ready      [keys]bool // the predicate each retry evaluates
			selfDrop   [keys]bool // the retry drops its own key mid-claim
			selfRepark [keys]bool // the retry re-parks its own key mid-claim
			gotOrder   []int
			wantOrder  []int
			gotStall   float64
			wantStall  float64
			now        float64
		)
		retryFor := func(l list, order *[]int, w int) func() bool {
			var retry func() bool
			retry = func() bool {
				if selfDrop[w] {
					l.Drop(w)
				}
				if selfRepark[w] {
					l.Park(w, now+0.25, retry)
				}
				if ready[w] {
					*order = append(*order, w)
				}
				return ready[w]
			}
			return retry
		}
		r := tensor.NewRNG(seed)
		for step := 0; step < 3000; step++ {
			now += r.Float64()
			w := r.Intn(keys)
			both := func(f func(l list, order *[]int, stall *float64)) {
				f(wl, &gotOrder, &gotStall)
				f(ref, &wantOrder, &wantStall)
			}
			switch op := r.Intn(12); {
			case op < 4:
				both(func(l list, order *[]int, _ *float64) { l.Park(w, now, retryFor(l, order, w)) })
			case op < 5:
				both(func(l list, _ *[]int, _ *float64) { l.Drop(w) })
			case op < 7:
				ready[w] = !ready[w]
			case op < 8:
				selfDrop[w], selfRepark[w] = r.Intn(3) == 0, r.Intn(3) == 0
			case op < 9:
				both(func(l list, _ *[]int, stall *float64) { l.TryResume(w, now, stall) })
			case op < 10:
				both(func(l list, _ *[]int, _ *float64) { l.TryResume(w, now, nil) })
			case op < 11:
				both(func(l list, _ *[]int, stall *float64) { l.WakeAttributing(now, stall) })
			default:
				both(func(l list, _ *[]int, _ *float64) { l.WakeAttributing(0, nil) })
			}
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("seed %d step %d: resume order diverged:\n got  %v\n want %v", seed, step, gotOrder, wantOrder)
			}
			if gotStall != wantStall {
				t.Fatalf("seed %d step %d: attributed stall %v, model %v", seed, step, gotStall, wantStall)
			}
			if wl.Len() != len(ref.pending) {
				t.Fatalf("seed %d step %d: %d parked, model %d", seed, step, wl.Len(), len(ref.pending))
			}
			for k := 0; k < keys; k++ {
				if _, want := ref.pending[k]; wl.Parked(k) != want {
					t.Fatalf("seed %d step %d: key %d parked=%v, model %v", seed, step, k, !want, want)
				}
			}
		}
		if len(gotOrder) < 100 || gotStall == 0 {
			t.Fatalf("seed %d: script exercised too little (%d resumes, stall %v)", seed, len(gotOrder), gotStall)
		}
	}
}

// TestWaitListWakeAllocatesNothing guards the gate's hot path at fleet
// size: a wake that finds 64 workers parked and none resumable claims,
// retries and restores each in place — no snapshot slice, no sort, no map.
func TestWaitListWakeAllocatesNothing(t *testing.T) {
	wl := NewWaitList()
	blocked := func() bool { return false }
	for w := 63; w >= 0; w-- {
		wl.Park(w, float64(w), blocked)
	}
	var stall float64
	if n := testing.AllocsPerRun(100, func() { wl.WakeAttributing(100, &stall) }); n != 0 {
		t.Fatalf("Wake over 64 blocked workers: %v allocs, want 0", n)
	}
	if wl.Len() != 64 || stall != 0 {
		t.Fatalf("blocked wake changed the list: %d parked, stall %v", wl.Len(), stall)
	}
}
