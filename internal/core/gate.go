package core

// gateSlot is one robot's place on the staleness gate: the retry closure
// ("try to resume; true if resumed"; nil while the robot is not parked)
// and the virtual time it parked.
type gateSlot struct {
	retry func() bool
	at    float64
}

// gateSlots holds one slot per robot, indexed by worker — the simnet
// analogue of the socket server's condition variable. Like the kernel that
// drives them, the slots are single-goroutine.
type gateSlots []gateSlot

// park sets robot w's retry, stamped with the current time; a re-park
// overwrites the previous one.
func (g gateSlots) park(w int, now float64, retry func() bool) { g[w] = gateSlot{retry, now} }

// drop empties robot w's slot without running its retry (the robot
// crashed while blocked; a ghost must not resume).
func (g gateSlots) drop(w int) { g[w] = gateSlot{} }

// wake retries every parked robot in index order, so the event sequence is
// deterministic; resumed robots are cleared and, when stall is non-nil,
// each adds its time parked to *stall (a detach-triggered wake charges the
// released wait to churn). A retry that parks again keeps its fresh park;
// one still blocked keeps its original stamp.
func (g gateSlots) wake(now float64, stall *float64) {
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
