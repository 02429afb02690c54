package engine

import (
	"rog/internal/compress"
	"rog/internal/rowsync"
)

// Downlink is the server's pull half for one worker (Algo. 2 lines 10–13),
// shared by both runtimes the way Replica is the worker half. It fixes when
// a pull's content is decided: Hold encodes and drains the planned units at
// plan time, so a row merged afterwards waits for the next pull. The
// runtime carries the held payloads and reports what arrived; Release folds
// the rest (budget cut, best-effort loss, broken connection) back.
//
// A Downlink belongs to the runtime and every call names the State to act
// on, so codec residuals and a pull in flight survive a recovered state
// swap. Not safe for concurrent use (the socket server holds Server.mu).
type Downlink struct {
	worker int
	codec  *compress.Codec // server→worker
	// held[u] is unit u's payload while the pull carrying it is out (Bits
	// == nil: not held). Indexed by unit and reused by every pull — a
	// per-pull map here costs the fleet benchmark +20 % allocated bytes.
	held    []compress.Payload
	scratch []float32
}

// NewDownlink builds worker's pull half for a model decomposed by part.
func NewDownlink(worker int, part *rowsync.Partition) *Downlink {
	return &Downlink{
		worker:  worker,
		codec:   compress.NewCodec(part.Widths()),
		held:    make([]compress.Payload, part.NumUnits()),
		scratch: make([]float32, part.MaxUnitLen()),
	}
}

// Hold starts a pull of units: encode-then-drain under each owning shard
// lock, so no merge lands between the copy leaving and the zero. A pull
// still out (its worker crashed mid-flow and rejoined before the flow
// ended) is released first.
func (d *Downlink) Hold(s *State, units []int) {
	d.Release(s)
	for _, u := range units {
		sh := s.shards[s.sm.ShardOf(u)]
		sh.mu.Lock()
		d.held[u] = d.codec.Encode(u, s.Acc[d.worker].Unit(u))
		s.drainUnitLocked(d.worker, u)
		sh.mu.Unlock()
	}
}

// Held returns unit u's payload without settling it (the socket server
// frames a pull before it knows what the send will deliver).
func (d *Downlink) Held(u int) compress.Payload { return d.held[u] }

// Take settles unit u as delivered and returns its payload; false when the
// pull in flight does not hold u.
func (d *Downlink) Take(u int) (compress.Payload, bool) {
	p := d.held[u]
	d.held[u] = compress.Payload{}
	return p, p.Bits != nil
}

// Release ends the pull in flight, folding every unit not taken back into
// the worker's averaged copy.
func (d *Downlink) Release(s *State) {
	for u := range d.held {
		if p, ok := d.Take(u); ok {
			d.Restore(s, p)
		}
	}
}

// HoldBacklog is Hold for the rejoin resync: every unit with mass
// accumulated while the worker was away, ascending, state quiesced. The
// payloads are the caller's (a resync can overlap the crashed worker's
// undelivered pull, so they skip the held slots); Restore returns a tail.
func (d *Downlink) HoldBacklog(s *State) []compress.Payload {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockShardsLocked()
	defer s.unlockShardsLocked()
	units := s.Acc[d.worker].Backlog()
	payloads := make([]compress.Payload, len(units))
	for i, u := range units {
		payloads[i] = d.codec.Encode(u, s.Acc[d.worker].Unit(u))
		s.drainUnitLocked(d.worker, u)
	}
	return payloads
}

// Restore folds undelivered payloads back into the worker's averaged copy.
// Encode moved (value − residual) into each, so adding the decoded value
// back conserves the gradient mass exactly.
func (d *Downlink) Restore(s *State, payloads ...compress.Payload) {
	for _, p := range payloads {
		vals := d.scratch[:p.N]
		compress.Decode(p, vals)
		s.restoreUnit(d.worker, p.Row, vals)
	}
}
