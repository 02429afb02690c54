package core

// gateSlot is one robot's place on the staleness gate: the retry closure
// ("try to resume; true if resumed"; nil while the robot is not parked),
// the virtual time it parked and the iteration whose gate it waits on.
type gateSlot struct {
	retry func() bool
	at    float64
	iter  int64
}

// gateSlots holds one slot per robot, indexed by worker — the simnet
// analogue of the socket server's condition variable. Like the kernel that
// drives them, the slots are single-goroutine.
type gateSlots []gateSlot

// frontier is the gate a wake retries against: Frontier is the first
// iteration it holds back (engine.State.Frontier — the global minimum plus
// the policy's live bound).
type frontier interface{ Frontier() int64 }

// park sets robot w's retry for the gate of iteration iter, stamped with the
// current time; a re-park overwrites the previous one.
func (g gateSlots) park(w int, now float64, iter int64, retry func() bool) {
	g[w] = gateSlot{retry, now, iter}
}

// drop empties robot w's slot without running its retry (the robot
// crashed while blocked; a ghost must not resume).
func (g gateSlots) drop(w int) { g[w] = gateSlot{} }

// wake retries, in index order so the event sequence is deterministic, every
// parked robot whose iteration f admits; the others keep their slots without
// a call, since their retries would only fail. Resumed robots are cleared
// and, when stall is non-nil, each adds its time parked to *stall (a
// detach-triggered wake charges the released wait to churn). A retry that
// parks again keeps its fresh park; one still blocked keeps its original
// stamp. f is read again after every retry that runs — a resumed robot's
// merges and pull plan may move the minimum or, under DSSP, the bound — so
// the skip is exact, and nothing is remembered from one wake to the next.
func (g gateSlots) wake(f frontier, now float64, stall *float64) {
	front := f.Frontier()
	for w := range g {
		s := g[w]
		if s.retry == nil || s.iter >= front {
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
		front = f.Frontier()
	}
}
