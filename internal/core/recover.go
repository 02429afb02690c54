package core

import (
	"encoding/binary"
	"fmt"

	"rog/internal/durable"
)

// This file is the durability layer of the simulated cluster: it binds the
// internal/durable checkpoint store to the driver loops so the parameter
// server's state survives a servercrash fault (and, via Resume, a whole
// process restart).
//
// Semantics:
//   - With Config.Durable set, every server-state transition (merge, drain,
//     restore, detach/attach, time observation, loss folding) reaches the
//     store's WAL (the store observes the engine.State), and a full
//     snapshot rotates in every SnapshotEverySeconds of virtual time. The
//     checkpoint payload carries the worker-side resume state: per-worker
//     iteration counters and model replicas.
//   - A servercrash fault crashes the store (unsynced WAL bytes are lost —
//     the fidelity of that loss is the store's SyncEvery knob) and, when the
//     downtime or recovery rate is non-zero, takes every link down so
//     nothing moves while the server is dead.
//   - The restart recovers the latest valid snapshot + WAL, swaps the
//     recovered state under the running drivers (every driver reads c.state
//     at call time, so parked predicates and in-flight completions see the
//     new state), and re-stamps rows whose merges were lost: a worker that
//     already pushed iteration n will never push n again, so the lost rows'
//     versions are re-stamped with zero gradient mass — the gradient loss is
//     counted in Recovery.RowsLost, and the RSP invariant
//     versions[w][u] == pushIter[w][u] is restored without deadlocking the
//     staleness gate.
//   - Pre-crash pushes that DID survive (journaled and synced) are replayed
//     by the store; a worker retransmitting them after reconnect is deduped
//     by the merge version guard, so no gradient is applied twice.

// setupDurable wires the checkpoint store before the drivers start: Begin a
// fresh store, or Recover and adopt a previous run's state when resuming.
func (c *cluster) setupDurable() error {
	st := c.cfg.Durable
	if st == nil {
		return nil
	}
	c.store = st
	if c.cfg.Resume {
		if !st.HasState() {
			return fmt.Errorf("core: Resume set but the checkpoint store holds no state")
		}
		info, err := c.recoverState()
		if err != nil {
			return fmt.Errorf("core: resume recovery: %w", err)
		}
		if err := c.applyResumePayload(info.Payload); err != nil {
			return err
		}
		// A fresh process brings every worker back: re-attach whoever the
		// previous run had detached, then fast-forward the worker-side
		// counters so the next push of every row stamps a fresh version.
		for w, r := range c.rep {
			if !c.state.Versions.IsActive(w) {
				c.state.Attach(w)
			}
			for u := range r.PushIter {
				v := c.state.Versions.Get(w, u)
				r.Stamp(u, v)
				if v > c.iter[w] {
					c.iter[w] = v
				}
			}
		}
	} else {
		if st.HasState() {
			return fmt.Errorf("core: checkpoint store already holds state (epoch %d); set Resume to continue it", st.Epoch())
		}
		if err := st.Begin(c.state, c.resumePayload()); err != nil {
			return fmt.Errorf("core: begin checkpoint store: %w", err)
		}
	}
	c.scheduleCheckpointTick()
	return nil
}

// recoverState rebuilds the engine state from the checkpoint store and
// swaps it under the running cluster. The driver loops read c.state at
// call time, so parked gate predicates (in the cluster's own gate slots)
// and in-flight flow completions pick the swap up transparently.
func (c *cluster) recoverState() (*durable.RecoveryInfo, error) {
	rec, info, err := c.store.RecoverSharded(c.policy, c.part, c.cfg.Workers, 1.0, c.cfg.Shards)
	if err != nil {
		return nil, err
	}
	c.adopt(rec)
	c.recovery.Recoveries++
	c.recovery.ReplayedRecords += info.ReplayedRecords
	c.recovery.ReplayedBytes += info.ReplayedBytes
	c.recovery.SnapshotBytes += info.SnapshotBytes
	return info, nil
}

// allStopped reports whether no driver will schedule further work — the
// checkpoint tick must then stop re-arming itself or the kernel never
// drains.
func (c *cluster) allStopped() bool {
	if c.k.Now() >= c.cfg.MaxVirtualSeconds {
		return true
	}
	for w := 0; w < c.cfg.Workers; w++ {
		if !c.halted[w] && !c.crashed[w] && c.iter[w] < int64(c.cfg.MaxIterations) {
			return false
		}
	}
	return true
}

// scheduleCheckpointTick rotates a checkpoint every SnapshotEverySeconds of
// virtual time, skipping ticks while the server is down.
func (c *cluster) scheduleCheckpointTick() {
	var tick func()
	tick = func() {
		if c.allStopped() || c.fatalErr != nil {
			return
		}
		if !c.serverDown {
			if err := c.store.Checkpoint(c.state, c.resumePayload()); err != nil {
				c.fatalErr = fmt.Errorf("core: checkpoint at t=%.3f: %w", c.k.Now(), err)
				return
			}
		}
		c.k.After(c.cfg.SnapshotEverySeconds, tick)
	}
	c.k.After(c.cfg.SnapshotEverySeconds, tick)
}

// crashServer kills the parameter server at the current virtual instant:
// unsynced WAL bytes are lost and, unless the restart is modelled as
// instantaneous, every link goes dark until recovery completes.
func (c *cluster) crashServer(duration float64) {
	if c.serverDown {
		return
	}
	c.serverDown = true
	c.crashTime = c.k.Now()
	if c.store != nil {
		c.store.Crash()
	}
	// The server's own membership edge: the restart's Reconnect(-1) closes it.
	c.probe.Detach(-1, int64(c.store.Epoch()), "servercrash")
	if duration > 0 || c.cfg.RecoverySecondsPerMB > 0 {
		c.setServerDown(true)
	}
}

// setServerDown darkens (or relights) every channel a link rides.
func (c *cluster) setServerDown(down bool) {
	for _, l := range c.links {
		l.ch.SetServerDown(down) // a no-op after a channel's first link
	}
}

// restartServer brings the parameter server back: recover the durable
// state, swap it under the drivers, re-stamp rows whose merges died with
// the old process, and (after the modelled recovery latency) reopen the
// links and re-evaluate every parked staleness gate.
func (c *cluster) restartServer() {
	if !c.serverDown {
		return
	}
	info, err := c.recoverState()
	if err != nil {
		c.fatalErr = fmt.Errorf("core: server restart at t=%.3f: %w", c.k.Now(), err)
		return
	}

	// Re-stamp pass: a row the worker already pushed past the recovered
	// version will never be pushed at that iteration again. Stamp it with
	// zero gradient mass so the version lattice (and with it the RSP gate)
	// matches the workers' view; the lost mass is the price of the crash.
	for w := 0; w < c.cfg.Workers; w++ {
		if c.crashed[w] {
			// Its detach may have died with the old process (unsynced, or the
			// robot crashed during the outage); a ghost would pin the gate.
			c.state.Detach(w)
			continue
		}
		for u, n := range c.rep[w].PushIter {
			if n > c.state.Versions.Get(w, u) && !(c.agg != nil && c.agg.holds(w, u, n)) {
				zero := c.scratch[:c.part.Unit(u).Len]
				clear(zero)
				c.state.Merge(w, u, zero, n)
				c.recovery.RowsLost++
			}
		}
	}

	recSeconds := c.cfg.RecoverySecondsPerMB * (info.SnapshotBytes + info.ReplayedBytes) / 1e6
	c.recovery.DowntimeSeconds += (c.k.Now() - c.crashTime) + recSeconds
	c.probe.Reconnect(-1, int64(c.store.Epoch()))
	finish := func() {
		c.serverDown = false
		c.setServerDown(false)
		c.gates.wake(c.state.Frontier(), 0, nil)
		for _, w := range c.rejoins {
			c.rejoinWorker(w)
		}
		c.rejoins = nil
	}
	if recSeconds > 0 {
		c.k.After(recSeconds, finish)
	} else {
		finish()
	}
}

const resumePayloadVersion = 1

// resumePayload encodes the worker-side state a process restart cannot
// rebuild from the server journal: per-worker iteration counters and the
// model replicas themselves, each length-prefixed. It encodes into the
// cluster's payload buffer, overwriting the previous payload: the store may
// keep no reference to it, and does not — encodeSnapshot copies it.
func (c *cluster) resumePayload() []byte {
	b := c.payload[:0]
	b = binary.LittleEndian.AppendUint32(b, resumePayloadVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.cfg.Workers))
	for w := 0; w < c.cfg.Workers; w++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.iter[w]))
	}
	for w := 0; w < c.cfg.Workers; w++ {
		at := len(b)
		b = append(b, 0, 0, 0, 0) // the model's length, patched below
		b = c.wl.Model(w).AppendParams(b)
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	c.payload = b
	return b
}

// applyResumePayload restores what resumePayload saved.
func (c *cluster) applyResumePayload(p []byte) error {
	bad := func(what string) error {
		return fmt.Errorf("core: resume payload: %s", what)
	}
	if len(p) < 8 {
		return bad("truncated header")
	}
	if v := binary.LittleEndian.Uint32(p[0:4]); v != resumePayloadVersion {
		return bad(fmt.Sprintf("version %d, want %d", v, resumePayloadVersion))
	}
	workers := int(binary.LittleEndian.Uint32(p[4:8]))
	if workers != c.cfg.Workers {
		return bad(fmt.Sprintf("saved for %d workers, running %d", workers, c.cfg.Workers))
	}
	off := 8
	if len(p) < off+8*workers {
		return bad("truncated iteration counters")
	}
	for w := 0; w < workers; w++ {
		c.iter[w] = int64(binary.LittleEndian.Uint64(p[off : off+8]))
		off += 8
	}
	for w := 0; w < workers; w++ {
		if len(p) < off+4 {
			return bad("truncated model length")
		}
		n := int(binary.LittleEndian.Uint32(p[off : off+4]))
		off += 4
		if n < 0 || len(p) < off+n {
			return bad("truncated model blob")
		}
		if err := c.wl.Model(w).DecodeParams(p[off : off+n]); err != nil {
			return fmt.Errorf("core: resume payload: worker %d model: %w", w, err)
		}
		off += n
	}
	if off != len(p) {
		return bad(fmt.Sprintf("%d trailing bytes", len(p)-off))
	}
	return nil
}
