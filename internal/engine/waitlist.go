package engine

import (
	"sort"
	"sync"
)

// WaitList holds workers blocked on a predicate, with the check to
// re-evaluate whenever the state it reads advances. Park times are recorded
// so a wake triggered by a membership detach can attribute the released
// stall to churn. The simnet cluster keeps one for the staleness gate —
// its analogue of the socket server's condition variable, kept here
// because park/wake ordering is part of the engine's determinism contract
// — and the serving tier's publisher keeps one for its read gate.
//
// The list is safe for concurrent use (the publisher wakes it from merge
// goroutines while request goroutines park). Retry closures run without
// the list's lock held (they re-evaluate their predicate, which takes
// locks of its own), so a closure may park other workers or wake other
// lists; it must not re-park its own worker — a false return already keeps
// it parked.
type WaitList struct {
	mu       sync.Mutex
	pending  map[int]func() bool // worker → "try to resume; true if resumed"; guarded by mu
	parkedAt map[int]float64     // worker → virtual time it parked; guarded by mu
	// dropped tombstones workers whose Drop raced with an in-flight
	// TryResume claim: the claim's restore must not resurrect the entry.
	// Cleared by the next Park (a fresh park supersedes the drop) or by the
	// in-flight claim when it completes. Guarded by mu.
	dropped map[int]bool
}

// NewWaitList creates an empty wait list.
func NewWaitList() *WaitList {
	return &WaitList{
		pending:  make(map[int]func() bool),
		parkedAt: make(map[int]float64),
		dropped:  make(map[int]bool),
	}
}

// Park registers worker w's retry closure, stamped with the current time.
func (wl *WaitList) Park(w int, now float64, retry func() bool) {
	wl.mu.Lock()
	wl.pending[w] = retry
	wl.parkedAt[w] = now
	delete(wl.dropped, w)
	wl.mu.Unlock()
}

// Drop discards worker w's parked retry without running it (the worker
// crashed while blocked; a ghost must not resume). If the retry is
// currently running inside a concurrent TryResume claim, the drop also
// suppresses the claim's still-blocked restore — otherwise the ghost entry
// would be resurrected the moment the retry returned false.
func (wl *WaitList) Drop(w int) {
	wl.mu.Lock()
	wl.dropLocked(w)
	wl.dropped[w] = true
	wl.mu.Unlock()
}

func (wl *WaitList) dropLocked(w int) {
	delete(wl.pending, w)
	delete(wl.parkedAt, w)
}

// Parked reports whether worker w is currently parked.
func (wl *WaitList) Parked(w int) bool {
	wl.mu.Lock()
	_, ok := wl.pending[w]
	wl.mu.Unlock()
	return ok
}

// Len reports how many workers are parked.
func (wl *WaitList) Len() int {
	wl.mu.Lock()
	n := len(wl.pending)
	wl.mu.Unlock()
	return n
}

// TryResume runs worker w's parked retry, if any. A true return drops the
// entry and — when stall is non-nil — adds the time parked to *stall (the
// caller passes the churn counter when the wake was caused by a detach).
// It reports whether the worker resumed. The retry runs without wl's lock;
// a concurrent TryResume for the same worker runs the closure at most
// once (the entry is claimed before the retry fires and restored if the
// predicate still holds).
func (wl *WaitList) TryResume(w int, now float64, stall *float64) bool {
	wl.mu.Lock()
	retry, ok := wl.pending[w]
	if !ok {
		wl.mu.Unlock()
		return false
	}
	at := wl.parkedAt[w]
	wl.dropLocked(w)
	wl.mu.Unlock()
	ok = retry()
	wl.mu.Lock()
	wasDropped := wl.dropped[w]
	delete(wl.dropped, w)
	if !ok && !wasDropped {
		// Still blocked: restore the entry with its original park stamp so a
		// later churn-attributed wake charges the full wait. A drop that
		// landed while the retry ran wins instead — the worker is gone.
		if _, reparked := wl.pending[w]; !reparked {
			wl.pending[w] = retry
			wl.parkedAt[w] = at
		}
	}
	wl.mu.Unlock()
	if ok && stall != nil {
		*stall += now - at
	}
	return ok
}

// Wake retries every parked worker; resumed ones are removed. Workers are
// retried in index order so the resulting event sequence is deterministic.
func (wl *WaitList) Wake() { wl.WakeAttributing(0, nil) }

// WakeAttributing is Wake with churn accounting: when stall is non-nil,
// each resumed worker adds its time-parked to *stall.
func (wl *WaitList) WakeAttributing(now float64, stall *float64) {
	wl.mu.Lock()
	workers := make([]int, 0, len(wl.pending))
	for w := range wl.pending {
		workers = append(workers, w)
	}
	wl.mu.Unlock()
	sort.Ints(workers)
	for _, w := range workers {
		wl.TryResume(w, now, stall)
	}
}
