package core

import (
	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/energy"
	"rog/internal/engine"
	"rog/internal/obs"
	"rog/internal/simnet"
)

// This file is the membership layer of the simulated cluster: it binds the
// simnet fault injector's crash/rejoin events to the VersionStore's
// Detach/Attach protocol, so every policy survives worker dropout the same
// way the live parameter server does.
//
// Semantics:
//   - A crash takes effect immediately for membership (the worker's rows
//     stop pinning the RSP minimum and parked survivors are re-evaluated)
//     but in-flight events of the crashed worker complete — its abandoned
//     iteration simply never finishes, so the crash lands at an iteration
//     boundary from the loop's point of view.
//   - Gradient averaging keeps folding survivor pushes into the crashed
//     worker's server-side copy, which therefore accumulates exactly the
//     state a rejoin must replay.
//   - A rejoin (deferred to the restart while the server is down)
//     re-attaches the worker (rows re-baselined at the surviving
//     minimum), takes the accumulated rows out of its server copy and
//     transmits them over the worker's link as one reliable resync plan,
//     resumes the worker at the baseline (engine.Replica.Rejoin), and
//     restarts its loop.
//
// Link faults (blackout, flap) bypass this file entirely: the injector
// drives Channel.SetLinkDown and the fluid-flow model stalls/resumes the
// affected flows. The worker stays attached — RSP's own staleness control
// is what bounds the damage, which is exactly the behaviour the churn
// experiment measures.

// installFaults schedules cfg.Faults against this cluster's kernel.
func (c *cluster) installFaults() error {
	inj := simnet.NewInjector(c.k, c.ch)
	inj.OnCrash = c.crashWorker
	inj.OnRejoin = c.rejoinWorker
	inj.OnServerCrash = c.crashServer
	inj.OnServerRestart = c.restartServer
	return inj.Install(c.cfg.Faults)
}

// crashWorker detaches worker w at the current virtual instant.
func (c *cluster) crashWorker(w int) {
	if c.crashed[w] {
		return
	}
	c.crashed[w] = true
	c.peer[w].Leave(c.state)
	c.probe.Detach(w, c.iter[w], "crash")
	// The ghost itself must not resume; survivors it was blocking re-check
	// their staleness predicate now, and any wait the detach releases is
	// churn-attributable stall.
	c.gates.drop(w)
	var stall float64
	c.gates.wake(c.state.Frontier(), c.k.Now(), &stall)
	if stall != 0 {
		c.state.AddDetachStall(stall)
	}
}

// rejoinWorker re-admits worker w: membership first (so the staleness
// bound holds from this instant), then the resync transmission, then the
// loop restart.
func (c *cluster) rejoinWorker(w int) {
	if !c.crashed[w] {
		return
	}
	if c.serverDown {
		// A robot cannot reconnect to a dead server (the state it would attach
		// to is about to be replaced): the restart re-admits it.
		c.rejoins = append(c.rejoins, w)
		return
	}
	base, backlog := c.peer[w].Rejoin(c.state)
	c.iter[w] = c.rep[w].Rejoin(c.iter[w], base)
	// The rejoin resync: every averaged row that accumulated while the
	// worker was away rides one whole-plan transmission over its (possibly
	// still weak) link — all of it reliable: on a lossy channel a dropped
	// row is sent again until it lands. Like any pull, its content is fixed
	// now, not when the flow lands.
	units := make([]int, len(backlog))
	held := make([]compress.Payload, c.part.NumUnits()) // by unit
	for i, p := range backlog {
		units[i] = p.Row
		held[p.Row] = p
	}
	ap := atp.NewPlan(units, c.wireSize)
	c.probe.Resync(w, len(backlog), ap.TotalBytes())
	c.crashed[w] = false
	c.send(c.links[w], c.iter[w], obs.DirPull, engine.Plan{Units: units, Must: len(units)}, ap,
		func(u int) { c.deliverPull(w, held[u]) },
		func(_ int, _, elapsed float64) {
			c.meters[w].Add(energy.Communicate, elapsed)
			c.resume(w)
		})
}
