package core

// gateSlot is one robot's place on the staleness gate: the retry closure
// ("try to resume; true if resumed"; nil while the robot is not parked),
// the virtual time it parked, the iteration whose gate it waits on and
// whether the wait is a push's admission (engine.Peer.Admit).
type gateSlot struct {
	retry func() bool
	at    float64
	iter  int64
	push  bool
}

// gateSlots holds one slot per robot, indexed by worker — the simnet
// analogue of the socket server's condition variable. Like the kernel that
// drives them, the slots are single-goroutine.
type gateSlots []gateSlot

// park sets robot w's retry for the gate of iteration iter, stamped with the
// current time; a re-park overwrites the previous one.
func (g gateSlots) park(w int, now float64, iter int64, retry func() bool) {
	g[w] = gateSlot{retry, now, iter, false}
}

// parkPush is park for a push of iteration iter+1 its admission refused.
// Admit judges it against the other workers' minimum, which the frontier
// does not bound, so every wake retries it.
func (g gateSlots) parkPush(w int, now float64, iter int64, retry func() bool) {
	g[w] = gateSlot{retry, now, iter, true}
}

// drop empties robot w's slot without running its retry (the robot
// crashed while blocked; a ghost must not resume).
func (g gateSlots) drop(w int) { g[w] = gateSlot{} }

// wake retries, in index order so the event sequence is deterministic, every
// parked robot whose iteration is below front — the first iteration the gate
// holds back (engine.State.Frontier), and every parked push; the others keep
// their slots without a call, since their retries would only fail. Resumed
// robots are cleared and, when stall is non-nil, each adds its time parked to
// *stall (a detach-triggered wake charges the released wait to churn). A
// retry that parks again keeps its fresh park; one still blocked keeps its
// original stamp. One frontier serves the whole wake: a retry passes the gate,
// plans its pull or push and starts a flow, none of which merges, so nothing
// it does moves the frontier.
func (g gateSlots) wake(front int64, now float64, stall *float64) {
	for w := range g {
		s := g[w]
		if s.retry == nil || (!s.push && s.iter >= front) {
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
