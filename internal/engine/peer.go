package engine

import (
	"rog/internal/compress"
	"rog/internal/rowsync"
)

// Peer is the server's half of one worker's iteration (Algo. 2) around its
// push's merge (State.Merge/MergeBatch), shared by both runtimes
// the way Replica is the worker's half; its methods are that sequence, in
// order — Admit before the merge, then PushDone, Gate, HoldPull, Settle —
// plus the membership edges. A runtime supplies the wait — what asks
// Gate again: a sync.Cond loop, a retry closure in a gate slot — and the
// carry: frames or flows, and which of a pull's rows they delivered.
//
// A Peer belongs to the runtime and every call names the State to act on, so
// codec residuals, a pull in flight and an open stall survive a recovered
// state swap. Its fields say who may touch them; the simnet kernel, one
// goroutine, satisfies all of it trivially.
type Peer struct {
	worker int

	codec *compress.Codec // guarded by Server.mu — server→worker error feedback
	// held[u] is unit u's payload while the pull carrying it is out (Bits
	// == nil: not held). Indexed by unit and reused by every pull — a
	// per-pull map here costs the fleet benchmark +20 % allocated bytes.
	held    []compress.Payload // guarded by Server.mu
	bits    [][]byte           // guarded by Server.mu — per unit: held's sign bits
	scratch []float32          // guarded by Server.mu
	// The gate's edge: whether a wait is open, and since when. Touched only
	// from the worker's loop (a socket handler asks Admit without Server.mu).
	stalled    bool
	stallBegan float64
}

// NewPeer builds worker's server half for a model decomposed by part.
func NewPeer(worker int, part *rowsync.Partition) *Peer {
	return &Peer{
		worker:  worker,
		codec:   compress.NewCodec(part.Widths()),
		held:    make([]compress.Payload, part.NumUnits()),
		bits:    unitBits(part),
		scratch: make([]float32, part.MaxUnitLen()),
	}
}

// PushDone reports the completed push (State.ObservePush).
func (p *Peer) PushDone(s *State, iter int64, mtaTime, elapsed float64, speculative bool) {
	s.ObservePush(p.worker, iter, mtaTime, elapsed, speculative)
}

// Admit reports whether the worker's push of iteration m may merge, as the
// gate of iteration m−1: the bound holds over merged rows. Its fast path —
// m−1 < State.Frontier(), almost every push — takes no lock, emits nothing and
// allocates nothing. Otherwise the push waits, traced as that gate's stall,
// until m−1 is inside the bound over the other attached workers' rows: every
// policy forces this worker's own rows at the bound into the push.
func (p *Peer) Admit(s *State, m int64, now float64) bool {
	if !p.stalled && m-1 < s.Frontier() {
		return true
	}
	blk, pinned := s.minRow(p.worker)
	ok := !pinned || m-1-blk.Version < s.bound
	s.Probe.GateCheck(ok)
	p.edge(s, ok, m-1, now, p.worker)
	return ok
}

// Gate reports whether the worker may advance past iteration n (Algo. 2
// lines 7–9) and traces a wait as one stall. It parks nobody: the runtime
// asks again whenever a merge or a detach may have moved the minimum.
func (p *Peer) Gate(s *State, n int64, now float64) bool {
	ok := s.CanAdvance(n)
	p.edge(s, ok, n, now, -1)
	return ok
}

// edge traces a wait at iteration n as one stall, however often the runtime
// asks: the first refusal opens it, naming what pins the minimum (minRow,
// skipping worker except; asked only with a probe), and the admission that
// ends it closes it over now − began (the runtime's clock, in seconds),
// naming the release.
func (p *Peer) edge(s *State, ok bool, n int64, now float64, except int) {
	switch {
	case !ok && !p.stalled:
		p.stalled, p.stallBegan = true, now
		if s.Probe != nil {
			blk, _ := s.minRow(except)
			s.Probe.StallBegin(p.worker, n, "gate", blk)
		}
	case ok && p.stalled:
		p.stalled = false
		s.Probe.StallEnd(p.worker, n, "gate", now-p.stallBegan, s.lastReleased())
	}
}

// HoldPull plans the pull answering the worker's iteration-n push and takes
// its rows out of the averaged copy, so a pull's content is fixed when it is
// planned: a row merged afterwards waits for the next one. The runtime
// carries the payloads (Held, Take) and settles the pull.
func (p *Peer) HoldPull(s *State, n int64) Plan {
	plan := s.PlanPull(p.worker, n)
	p.hold(s, plan.Units)
	return plan
}

// hold encodes then drains units under each owning shard lock, so no merge
// lands between the copy leaving and the zero. A pull still out (its worker
// crashed mid-flow and rejoined before the flow ended) is settled first —
// which is also what frees the per-unit bits the encodes overwrite.
func (p *Peer) hold(s *State, units []int) {
	p.Settle(s, nil)
	for _, u := range units {
		sh := s.shards[s.sm.ShardOf(u)]
		sh.mu.Lock()
		p.held[u] = p.codec.EncodeInto(u, s.Acc[p.worker].Unit(u), p.bits[u])
		s.drainUnitLocked(p.worker, u)
		sh.mu.Unlock()
	}
}

// Held returns unit u's payload without settling it (the socket server
// frames a pull before it knows what the send will deliver). Its Bits are
// the Peer's and stay put until the next hold encodes u, which settles the
// pull first (TestHeldPullSurvivesRejoinBacklog).
func (p *Peer) Held(u int) compress.Payload { return p.held[u] }

// Take settles unit u as delivered and returns its payload; false when the
// pull in flight does not hold u. Like Held's, the payload is valid until the
// next hold: decode it before planning this worker's next pull (simnet
// decodes at delivery).
func (p *Peer) Take(u int) (compress.Payload, bool) {
	pl := p.held[u]
	p.held[u] = compress.Payload{}
	return pl, pl.Bits != nil
}

// Settle ends the pull in flight: delivered went out whole (beyond what the
// runtime already took), and every unit still held — a budget cut, a
// best-effort loss, a broken connection — folds back into the worker's
// averaged copy.
func (p *Peer) Settle(s *State, delivered []int) {
	for _, u := range delivered {
		p.Take(u)
	}
	for u := range p.held {
		if pl, ok := p.Take(u); ok {
			p.Restore(s, pl)
		}
	}
}

// Rejoin re-admits the detached worker and returns its baseline iteration
// and the resync to carry to it, in one fixed order: membership first, so the
// staleness bound holds from this instant, then the backlog leaves its copy
// and is counted, then the Reconnect event. What the carry fails to deliver
// goes back through Restore.
func (p *Peer) Rejoin(s *State) (base int64, backlog []compress.Payload) {
	base = s.Attach(p.worker)
	backlog = p.holdBacklog(s)
	s.addRowsResynced(len(backlog))
	s.Probe.Reconnect(p.worker, base)
	return base, backlog
}

// holdBacklog is hold for the rejoin resync: every unit with mass
// accumulated while the worker was away, ascending, state quiesced. The
// payloads and their Bits are the caller's, freshly allocated: a resync can
// overlap the crashed worker's still-held pull of the same unit, and simnet's
// flow closure keeps them past any hold (TestHeldPullSurvivesRejoinBacklog).
// Rare, so not pooled.
func (p *Peer) holdBacklog(s *State) []compress.Payload {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockShardsLocked()
	defer s.unlockShardsLocked()
	units := s.Acc[p.worker].Backlog()
	payloads := make([]compress.Payload, len(units))
	for i, u := range units {
		payloads[i] = p.codec.Encode(u, s.Acc[p.worker].Unit(u))
		s.drainUnitLocked(p.worker, u)
	}
	return payloads
}

// Restore folds undelivered payloads back into the worker's averaged copy.
// Encode moved (value − residual) into each, so adding the decoded value
// back conserves the gradient mass exactly.
func (p *Peer) Restore(s *State, payloads ...compress.Payload) {
	for _, pl := range payloads {
		vals := p.scratch[:pl.N]
		compress.Decode(pl, vals)
		s.restoreUnit(p.worker, pl.Row, vals)
	}
}

// Recover is the worker's step after a restart on a recovered state. A worker
// not connected (pushed nil; inFlight is not asked) is detached: a ghost
// would pin the gate. Of a connected one's push stamps, every row pushed past
// its recovered version, unless inFlight says that push is still on its way,
// is re-stamped with zero mass, since the worker never pushes an iteration
// twice. It returns how many rows it re-stamped: the gradient the crash lost.
func (p *Peer) Recover(s *State, pushed []int64, inFlight func(u int, n int64) bool) (lost int) {
	if pushed == nil {
		s.Detach(p.worker)
		return 0
	}
	for u, n := range pushed {
		if n > s.Versions.Get(p.worker, u) && !inFlight(u, n) {
			s.Merge(p.worker, u, s.zero[:s.part.Unit(u).Len], n)
			lost++
		}
	}
	return lost
}

// Leave removes the worker from membership (State.Detach) and abandons its
// open stall: the wait ended with no release. The Detach event is the
// runtime's — detection knows the cause and the iteration to name — and a
// pull in flight stays held until the runtime settles it.
func (p *Peer) Leave(s *State) {
	s.Detach(p.worker)
	p.stalled = false
}
