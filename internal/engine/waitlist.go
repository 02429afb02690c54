package engine

import (
	"cmp"
	"math"
	"slices"
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
	mu sync.Mutex
	// waiters is sorted by key — small sets: worker indices in simnet, the
	// requests currently gated in serve — so Wake retries in index order by
	// walking it, with no map and no sort.
	waiters []waiter // guarded by mu
}

// waiter is one key's slot. It is parked while retry is non-nil; a slot
// also stays, unparked, while a TryResume claim runs its retry (so the
// restore costs no insert) and as a drop's tombstone.
type waiter struct {
	key   int
	retry func() bool // "try to resume; true if resumed"
	at    float64     // virtual time it parked
	// dropped tombstones a key whose Drop may have raced with an in-flight
	// TryResume claim: the claim's restore must not resurrect the entry.
	// Cleared by the next Park or by that claim when it completes.
	dropped bool
}

// NewWaitList creates an empty wait list.
func NewWaitList() *WaitList { return &WaitList{} }

// findLocked returns the position of the first slot whose key is not below
// key, and whether that slot is key's own. hint is where the caller last saw
// that position (0: no idea) — a Wake's lookups are checks, not searches.
// Caller holds mu.
func (wl *WaitList) findLocked(key, hint int) (int, bool) {
	ws := wl.waiters
	i := hint
	if i > len(ws) || (i > 0 && ws[i-1].key >= key) || (i < len(ws) && ws[i].key < key) {
		i, _ = slices.BinarySearchFunc(ws, key, func(e waiter, k int) int { return cmp.Compare(e.key, k) })
	}
	return i, i < len(ws) && ws[i].key == key
}

// slotLocked returns the position of key's slot, inserting an empty one if it
// has none. Caller holds mu; the position is good until the lock is released.
func (wl *WaitList) slotLocked(key, hint int) int {
	i, ok := wl.findLocked(key, hint)
	if !ok {
		wl.waiters = slices.Insert(wl.waiters, i, waiter{key: key})
	}
	return i
}

// Park registers worker w's retry closure, stamped with the current time.
func (wl *WaitList) Park(w int, now float64, retry func() bool) {
	wl.mu.Lock()
	wl.waiters[wl.slotLocked(w, 0)] = waiter{key: w, retry: retry, at: now}
	wl.mu.Unlock()
}

// Drop discards worker w's parked retry without running it (the worker
// crashed while blocked; a ghost must not resume). If the retry is
// currently running inside a concurrent TryResume claim, the drop also
// suppresses the claim's still-blocked restore — otherwise the ghost entry
// would be resurrected the moment the retry returned false.
func (wl *WaitList) Drop(w int) {
	wl.mu.Lock()
	wl.waiters[wl.slotLocked(w, 0)] = waiter{key: w, dropped: true}
	wl.mu.Unlock()
}

// Parked reports whether worker w is currently parked.
func (wl *WaitList) Parked(w int) bool {
	wl.mu.Lock()
	i, ok := wl.findLocked(w, 0)
	ok = ok && wl.waiters[i].retry != nil
	wl.mu.Unlock()
	return ok
}

// Len reports how many workers are parked.
func (wl *WaitList) Len() int {
	wl.mu.Lock()
	n := 0
	for i := range wl.waiters {
		if wl.waiters[i].retry != nil {
			n++
		}
	}
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
	return wl.tryResume(w, 0, now, stall)
}

// tryResume is TryResume given where w's slot was last seen.
func (wl *WaitList) tryResume(w, hint int, now float64, stall *float64) bool {
	wl.mu.Lock()
	i, ok := wl.findLocked(w, hint)
	if !ok || wl.waiters[i].retry == nil {
		wl.mu.Unlock()
		return false
	}
	retry, at := wl.waiters[i].retry, wl.waiters[i].at
	wl.waiters[i].retry = nil // claimed
	wl.mu.Unlock()
	ok = retry()
	wl.mu.Lock()
	i = wl.slotLocked(w, i) // slots may have moved while the retry ran
	e := &wl.waiters[i]
	wasDropped := e.dropped
	e.dropped = false
	switch {
	case e.retry != nil:
		// Re-parked while the retry ran: the fresh park stands.
	case !ok && !wasDropped:
		// Still blocked: restore the entry with its original park stamp so a
		// later churn-attributed wake charges the full wait. A drop that
		// landed while the retry ran wins instead — the worker is gone.
		e.retry, e.at = retry, at
	default:
		wl.waiters = slices.Delete(wl.waiters, i, i+1)
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
	// The cursor is a key (retries run unlocked; slots come and go under
	// them), the position it was found at the hint.
	for i, w, ok := wl.nextParked(math.MinInt, 0); ok; i, w, ok = wl.nextParked(w+1, i+1) {
		wl.tryResume(w, i, now, stall)
	}
}

// nextParked returns the position and key of the first parked slot whose
// key is not below from.
func (wl *WaitList) nextParked(from, hint int) (int, int, bool) {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	for i, _ := wl.findLocked(from, hint); i < len(wl.waiters); i++ {
		if wl.waiters[i].retry != nil {
			return i, wl.waiters[i].key, true
		}
	}
	return 0, 0, false
}
