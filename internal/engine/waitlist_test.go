package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
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
