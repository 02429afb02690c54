package engine

import (
	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// Replica is the worker side of a run (Algo. 1), shared verbatim by both
// runtimes the way State is the server side. The runtimes own the clock and
// the wire; what a worker's gradient mass and parameters look like after a
// push, a lost row, a pull or a rejoin is decided here, once. A Replica
// belongs to one worker and is not safe for concurrent use.
type Replica struct {
	Model *nn.Sequential
	Opt   *nn.SGD
	Local *rowsync.GradStore // accumulated, not-yet-pushed gradients g′
	// PushIter[u] is the last local iteration whose gradients for unit u
	// reached the server (the worker-side `iters` of Algo. 1).
	PushIter []int64

	part  *rowsync.Partition
	codec *compress.Codec // uplink, with error feedback
	// The model's gradient matrices, listed once: Grads() rebuilds its
	// slice on every call.
	grads   []*tensor.Matrix
	scratch []float32   // Restore's decoded row
	plan    PlanScratch // lent to the policy with every PushView
	bits    [][]byte    // per unit: EncodeUnit's sign bits
}

// unitBits carves one slab into a sign-bit buffer per unit of part, for the
// holder of that unit's payloads (compress.Codec.EncodeInto).
func unitBits(part *rowsync.Partition) [][]byte {
	widths := part.Widths()
	total := 0
	for _, n := range widths {
		total += (n + 7) / 8
	}
	slab, bits := make([]byte, total), make([][]byte, len(widths))
	for u, n := range widths {
		k := (n + 7) / 8
		bits[u], slab = slab[:k:k], slab[k:]
	}
	return bits
}

// NewReplica wraps model (decomposed by part) with a fresh optimizer,
// accumulator and uplink codec.
func NewReplica(model *nn.Sequential, part *rowsync.Partition, lr, momentum float64) *Replica {
	return &Replica{
		Model:    model,
		Opt:      nn.NewSGD(lr, momentum),
		Local:    rowsync.NewGradStore(part),
		PushIter: make([]int64, part.NumUnits()),
		part:     part,
		codec:    compress.NewCodec(part.Widths()),
		grads:    model.Grads(),
		scratch:  make([]float32, part.MaxUnitLen()),
		bits:     unitBits(part),
	}
}

// Accumulate folds the model's freshly computed gradients into the local
// store and clears them (Algo. 1 lines 2–3).
func (r *Replica) Accumulate() {
	r.Local.Accumulate(r.grads)
	for _, g := range r.grads {
		g.Zero()
	}
}

// PushView assembles the policy's worker-side view for iteration iter from
// the runtime's latest knowledge of the global minimum row version and the
// MTA-time budget.
func (r *Replica) PushView(worker int, iter, min int64, budget float64) PushView {
	rows := r.plan.rows[:0]
	for u, it := range r.PushIter {
		rows = append(rows, atp.RowInfo{ID: u, MeanAbs: r.Local.MeanAbs(u), Iter: it})
	}
	r.plan.rows = rows
	return PushView{Worker: worker, Iter: iter, Rows: rows, Min: min, Budget: budget, Scratch: &r.plan}
}

// EncodeUnit compresses unit u's accumulated gradient for the uplink and
// clears it (Algo. 1 lines 9–10). If the payload never arrives, Restore
// gives its mass back. The payload's Bits are the Replica's: it is valid
// until the next EncodeUnit(u) — livenet's push keeps a plan's payloads, one
// per unit, only until its restore loop, simnet decodes at delivery
// (TestReplicaEncodeUnitDoesNotAllocate).
func (r *Replica) EncodeUnit(u int) compress.Payload {
	p := r.codec.EncodeInto(u, r.Local.Unit(u), r.bits[u])
	r.Local.ZeroUnit(u)
	return p
}

// Stamp records that unit u's gradients of iteration iter reached the
// server (Algo. 1 line 11).
func (r *Replica) Stamp(u int, iter int64) { r.PushIter[u] = iter }

// Restore returns an encoded payload that never reached the server to the
// accumulator. Encode moved (value − residual) into the payload, so adding
// the decoded value back conserves the gradient mass exactly.
func (r *Replica) Restore(p compress.Payload) {
	vals := r.scratch[:p.N]
	compress.Decode(p, vals)
	r.Local.AddUnit(p.Row, vals, 1)
}

// Apply runs the SGD update of one pulled averaged unit (Algo. 1 lines
// 13–16). A unit may span rows (layer granularity) or part of one (element
// granularity): whole rows go through the optimizer so momentum state stays
// per-row; a partial row takes the same step rule without momentum.
func (r *Replica) Apply(u int, vals []float32) {
	un := r.part.Unit(u)
	params := r.Model.Params()
	p := params[un.Param]
	end := un.Offset + un.Len
	for off := un.Offset; off < end; {
		row := off / p.Cols
		col := off - row*p.Cols
		width := p.Cols - col
		if off+width > end {
			width = end - off
		}
		src := vals[off-un.Offset : off-un.Offset+width]
		if width == p.Cols {
			r.Opt.ApplyRow(params, un.Param, row, src)
		} else {
			lr := float32(r.Opt.LR)
			dst := p.Data[off : off+width]
			for i := range dst {
				dst[i] -= lr * src[i]
			}
		}
		off += width
	}
}

// Rejoin is the one resume rule both runtimes follow: after the server
// re-baselined this worker's rows at base (Peer.Rejoin), the push stamps and
// the last iteration iter fast-forward to base, never back, so the next push
// of every unit stamps a fresh version. It returns the iteration to resume
// from.
func (r *Replica) Rejoin(iter, base int64) int64 {
	for u, it := range r.PushIter {
		if it < base {
			r.PushIter[u] = base
		}
	}
	return max(iter, base)
}
