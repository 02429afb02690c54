package core

// runPipelined implements the paper's future-work extension (Sec. VI-D):
// overlapping communication and computation on each robot, in the spirit of
// Pipe-SGD [65]. Each worker owns two serial resources — the CPU and the
// radio. While the radio synchronizes iteration n's rows, the CPU already
// computes iteration n+1's gradients (on the model state before pull n,
// which adds one bounded unit of staleness, still governed by RSP). The
// pipeline depth is one: compute(n+2) cannot start until comm(n+1) begins,
// i.e. until comm(n) finished. What moves and when a worker may advance
// come from the policy (the "pipeline" registry entry — ROG's plans with
// the Pipelined trait).
//
// Accounting: an iteration's span runs from the previous comm completion to
// its own; compute and comm overlap, so the stall residual is clamped at
// zero and total metered time may exceed wall time (both chips draw power
// simultaneously, so the energy integral remains correct).
func (c *cluster) runPipelined() {
	type wstate struct {
		computeIter int64 // iterations whose gradients have been computed
		readyIter   int64 // snapshot awaiting the radio (0 = none)
		cpuBusy     bool
		commBusy    bool
		spanStart   float64 // previous comm completion (iteration span start)
	}
	states := make([]*wstate, c.cfg.Workers)
	for w := range states {
		states[w] = &wstate{}
	}

	var tryCompute func(w int)
	var beginComm func(w int, n int64)

	beginComm = func(w int, n int64) {
		st := states[w]
		if c.crashed[w] {
			return
		}
		st.commBusy = true
		st.readyIter = 0
		c.synchronize(w, n, c.planPush(w, n), func(commSec float64) {
			c.finishIteration(w, st.spanStart, commSec)
			st.spanStart = c.k.Now()
			st.commBusy = false
			if st.readyIter != 0 {
				beginComm(w, st.readyIter)
			}
			tryCompute(w)
		})
		// The radio is now busy with iteration n; the CPU may start on n+1.
		tryCompute(w)
	}

	tryCompute = func(w int) {
		st := states[w]
		if c.crashed[w] {
			return // rejoin restarts the pipeline via resumeFn
		}
		if st.cpuBusy || st.readyIter != 0 {
			return // CPU occupied, or a snapshot still waits for the radio
		}
		if st.computeIter >= int64(c.cfg.MaxIterations) || c.k.Now() >= c.cfg.MaxVirtualSeconds {
			c.halted[w] = true
			return
		}
		st.cpuBusy = true
		st.computeIter++
		n := st.computeIter
		c.probe.IterStart(w, n)
		c.wl.ComputeGradients(w)
		c.k.After(c.computeSecondsFor(w), func() {
			if c.crashed[w] {
				return // crashed during compute: the iteration is lost
			}
			c.accumulate(w)
			st.cpuBusy = false
			st.readyIter = n
			if !st.commBusy {
				beginComm(w, n)
			}
		})
	}

	// A rejoined worker restarts with an idle CPU and radio; its pipeline
	// counter fast-forwards to the membership baseline so the first push
	// after the resync stays monotone.
	c.resumeFn = func(w int) {
		st := states[w]
		st.cpuBusy, st.commBusy, st.readyIter = false, false, 0
		if st.computeIter < c.iter[w] {
			st.computeIter = c.iter[w]
		}
		tryCompute(w)
	}
	for w := 0; w < c.cfg.Workers; w++ {
		tryCompute(w)
	}
}
