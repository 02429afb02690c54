package core

import (
	"rog/internal/energy"
	"rog/internal/obs"
)

// runBarrier drives round-lockstep policies (BSP): every iteration all
// workers compute, push what the policy plans, wait at the barrier until
// everyone's push arrived and everyone's averaged pull is delivered, then
// start the next round together. A single slow link stalls the entire
// team — the straggler effect the paper sets out to kill.
//
// The first barrier (every push before any pull) is the policy's
// CanAdvance gate, which is all the socket runtime uses. The second (every
// round-n pull before anyone starts n+1) is why this loop exists:
// deliverPull reads the live server accumulator at delivery time, so under
// the gate alone a fast worker's round n+1 push would leak into a slow
// worker's round-n pull and the replicas would drift apart
// (TestBSPReplicasStayIdentical).
func (c *cluster) runBarrier() {
	type roundState struct {
		start    float64
		started  []bool // workers that began this round (attached at its start)
		commSec  []float64
		pushLeft int
		pullLeft int
	}
	var startRound func()
	n := int64(0)

	startRound = func() {
		if c.iter[0] >= int64(c.cfg.MaxIterations) || c.k.Now() >= c.cfg.MaxVirtualSeconds {
			return
		}
		n++
		rs := &roundState{
			start:   c.k.Now(),
			started: make([]bool, c.cfg.Workers),
			commSec: make([]float64, c.cfg.Workers),
		}
		// The barrier counts only the workers attached at round start; a
		// crashed robot neither computes nor holds up its teammates.
		barrier := func() {
			// Barrier reached: server has every living worker's gradients;
			// send averaged models back to the workers still attached.
			var targets []int
			for s := 0; s < c.cfg.Workers; s++ {
				if !c.crashed[s] {
					targets = append(targets, s)
				}
			}
			rs.pullLeft = len(targets)
			if rs.pullLeft == 0 {
				return // the whole team is down; the round dies with it
			}
			for _, s := range targets {
				s := s
				c.transmit(s, n, obs.DirPull, c.state.PlanPull(s, n), func(_ int, _, elapsed float64) {
					rs.commSec[s] += elapsed
					rs.pullLeft--
					if rs.pullLeft > 0 {
						return
					}
					// The round ends for every participant at the same
					// instant (the barrier).
					for _, x := range targets {
						switch {
						case c.crashed[x]:
						case rs.started[x]:
							c.finishIteration(x, rs.start, rs.commSec[x])
						default:
							// Rejoined mid-round: it got the round's pull but
							// never started the iteration, so there is none to
							// finish — only its radio time is metered and its
							// counter joins the team's.
							c.meters[x].Add(energy.Communicate, rs.commSec[x])
							c.iter[x] = n
						}
					}
					startRound()
				})
			}
		}
		arrive := func() {
			rs.pushLeft--
			if rs.pushLeft == 0 {
				barrier()
			}
		}
		rs.pushLeft = c.cfg.Workers
		for w := 0; w < c.cfg.Workers; w++ {
			w := w
			if c.crashed[w] {
				arrive() // a downed worker contributes nothing this round
				continue
			}
			rs.started[w] = true
			c.probe.IterStart(w, n)
			c.wl.ComputeGradients(w)
			c.accumulate(w)
			// Each worker pushes when its own compute finishes (devices may
			// be heterogeneous); the barrier still waits for every push and
			// pull of the attached team.
			c.k.After(c.computeSecondsFor(w), func() {
				if c.crashed[w] {
					arrive() // crashed during compute: its round is lost
					return
				}
				plan := c.planPush(w, n)
				c.transmit(w, n, obs.DirPush, plan, func(_ int, mtaTime, elapsed float64) {
					rs.commSec[w] += elapsed
					c.state.ObservePush(w, n, mtaTime, elapsed, plan.Speculative)
					arrive()
				})
			})
		}
	}
	// The barrier loop is round-driven: a rejoined worker needs no explicit
	// resume — it computes again from the next round. (If the entire team
	// goes down the round engine dies with it; BSP has no membership protocol
	// to revive a fully dead run.)
	c.resumeFn = func(int) {}
	startRound()
}
