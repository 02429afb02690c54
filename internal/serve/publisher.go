package serve

import (
	"sync"
	"sync/atomic"

	"rog/internal/engine"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// Publisher maintains the serving tier's weight shadow and publishes
// immutable Snapshots of it. It observes the training State's transition
// stream (engine.State.Observe): every merged row's averaged contribution
// (Vals · Aux) is applied as one momentum-free SGD step to the shadow,
// `row -= lr · scale · vals`, under the owning publisher shard's lock.
// Whenever the global row-version minimum has advanced past the published
// version, the shadow is snapshotted copy-on-write: each shard marks its
// rows shared and hands out the slice headers; a later absorb on a shared
// row copies it first, so snapshot rows are immutable from the instant
// they are captured.
//
// The snapshot path extends the engine's machine-checked lock order:
// absorb runs under one stateShard lock and reaches pubMu, then each
// publisher shard in ascending order; nothing under pubMu or a pubShard
// lock ever reaches back into the State (Versions.Min() is lock-free). The
// read gate's release runs in the same publish, after pubMu is let go.
//
//roglint:lockorder stateShard.mu < Publisher.pubMu < pubShard.mu
//roglint:lockorder stateShard.mu < Publisher.gateMu
type Publisher struct {
	st   *engine.State
	part *rowsync.Partition
	sm   *rowsync.ShardMap
	lr   float32

	// Probe, when set, receives a SnapshotPublish event per publication.
	// Set it before training merges begin.
	Probe *obs.Probe

	pubMu  sync.Mutex // serializes publications; guards seq
	seq    int64      // guarded by pubMu
	shards []*pubShard

	cur       atomic.Pointer[Snapshot]
	publishes atomic.Int64

	gateMu sync.Mutex
	gated  []gatedReq // guarded by gateMu; the read gate, in park order
}

// gatedReq is one request parked on the read gate: the version it demands
// and what admits it once a snapshot that fresh is published.
type gatedReq struct {
	minVersion int64
	resume     func()
}

// pubShard is one independently lockable slice of the weight shadow,
// mirroring the training state's unit-range sharding so absorb contention
// matches merge contention.
type pubShard struct {
	lo, hi int

	mu     sync.Mutex
	rows   [][]float32 // guarded by mu; rows[i] is unit lo+i's live shadow row
	shared []bool      // guarded by mu; true while rows[i] is referenced by a snapshot
}

// NewPublisher builds the weight shadow from the pretrained parameters in
// init (the architecture part was built from), registers itself on st's
// observer chain, and publishes the initial snapshot at version 0. lr is
// the SGD step applied to each absorbed averaged row.
//
// Call before training merges begin (see engine.State.Observe).
func NewPublisher(st *engine.State, part *rowsync.Partition, init []*tensor.Matrix, lr float64) *Publisher {
	sm := st.ShardMap()
	p := &Publisher{st: st, part: part, sm: sm, lr: float32(lr)}
	for i := 0; i < sm.NumShards(); i++ {
		lo, hi := sm.Range(i)
		sh := &pubShard{lo: lo, hi: hi}
		sh.rows = make([][]float32, hi-lo)
		sh.shared = make([]bool, hi-lo)
		for u := lo; u < hi; u++ {
			sh.rows[u-lo] = append([]float32(nil), part.Slice(init, u)...)
		}
		p.shards = append(p.shards, sh)
	}
	st.Observe(p.absorb)
	p.publish(0)
	return p
}

// Current returns the latest published snapshot (never nil after
// NewPublisher).
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// Version returns the latest published training version.
func (p *Publisher) Version() int64 { return p.cur.Load().Version() }

// Publishes returns how many snapshots have been published (including the
// initial version-0 one).
func (p *Publisher) Publishes() int64 { return p.publishes.Load() }

// Parked reports how many requests are currently waiting on the read gate
// for a fresher snapshot.
func (p *Publisher) Parked() int {
	p.gateMu.Lock()
	defer p.gateMu.Unlock()
	return len(p.gated)
}

// await runs resume once a snapshot at version ≥ min is published: now if
// one already is, else from the publication that satisfies it. The version
// is read under gateMu, which publish takes only after swapping its
// snapshot in, so no publication can slip between the check and the park.
func (p *Publisher) await(min int64, resume func()) {
	p.gateMu.Lock()
	if p.Version() >= min {
		p.gateMu.Unlock()
		resume()
		return
	}
	p.gated = append(p.gated, gatedReq{min, resume})
	p.gateMu.Unlock()
}

// release admits every parked request the published version satisfies, in
// park order, running their resumes with no serve lock held.
func (p *Publisher) release() {
	p.gateMu.Lock()
	v := p.Version()
	var ready []gatedReq
	kept := p.gated[:0]
	for _, g := range p.gated {
		if g.minVersion <= v {
			ready = append(ready, g)
		} else {
			kept = append(kept, g)
		}
	}
	clear(p.gated[len(kept):])
	p.gated = kept
	p.gateMu.Unlock()
	for _, g := range ready {
		g.resume()
	}
}

// absorb is the state observer: it folds one merged row's averaged
// contribution into the shadow and publishes when the global minimum has
// moved past the published version. It runs under the owning stateShard's
// lock. A combined row's further stamps land a zero row at scale 0 — no
// step, but the minimum may have moved; no other kind of transition touches
// the shadow.
func (p *Publisher) absorb(t engine.Transition) {
	if t.Kind != engine.KindMerge {
		return
	}
	sh := p.shards[p.sm.ShardOf(t.Unit)]
	sh.mu.Lock()
	i := t.Unit - sh.lo
	row := sh.rows[i]
	if sh.shared[i] {
		// Copy-on-write: the row is captured in a snapshot; writing it in
		// place would tear an in-flight request's view.
		row = append(make([]float32, 0, len(row)), row...)
		sh.rows[i] = row
		sh.shared[i] = false
	}
	step := p.lr * float32(t.Aux)
	for j, v := range t.Vals {
		row[j] -= step * v
	}
	sh.mu.Unlock()
	if min := p.st.Versions.Min(); min > p.Version() {
		p.publish(min)
	}
}

// publish captures the shadow as an immutable snapshot at version min and
// hot-swaps it in. Each shard is captured under its own lock — a shard's
// rows are exactly one prefix of that shard's applied-update sequence —
// and the assembly across shards is lock-free, so a publication never
// stops a merge landing on another shard.
func (p *Publisher) publish(min int64) {
	p.pubMu.Lock()
	if cur := p.cur.Load(); cur != nil && cur.version >= min {
		// A concurrent absorb already published this far.
		p.pubMu.Unlock()
		return
	}
	rows := make([][]float32, p.part.NumUnits())
	for _, sh := range p.shards {
		sh.mu.Lock()
		for i := range sh.rows {
			sh.shared[i] = true
			rows[sh.lo+i] = sh.rows[i]
		}
		sh.mu.Unlock()
	}
	p.seq++
	seq := p.seq
	p.cur.Store(&Snapshot{version: min, seq: seq, rows: rows})
	p.pubMu.Unlock()
	p.publishes.Add(1)
	p.Probe.SnapshotPublish(min, seq, len(rows))
	// In-flight requests keep the snapshot they were batched against; the
	// swap above only redirects future reads. Release the read gate last so
	// resumed requests see the fresh snapshot.
	p.release()
}
