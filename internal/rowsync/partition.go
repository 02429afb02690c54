// Package rowsync provides the row-granulated bookkeeping underneath RSP
// (Row Stale Parallel): partitioning a model's parameters into
// synchronization units, per-unit accumulated gradients, and the per-row
// version storage whose two-level staleness predicate gives ROG the same
// convergence guarantee as SSP (paper Sec. IV-C).
package rowsync

import (
	"fmt"
	"math"

	"rog/internal/compress"
	"rog/internal/tensor"
)

// Granularity selects how a model's parameters are broken into
// transmission/synchronization units (paper Sec. III-A). Rows is ROG's
// choice; Layers and Elements exist for the granularity ablation.
type Granularity int

const (
	// Rows makes each matrix row one unit — ROG's trade-off between index
	// overhead and scheduling flexibility.
	Rows Granularity = iota
	// Layers makes each parameter matrix one unit (model-ish granularity:
	// large units, tiny index).
	Layers
	// Elements makes every scalar one unit (maximal flexibility, index
	// volume comparable to the model itself).
	Elements
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case Layers:
		return "layers"
	case Elements:
		return "elements"
	default:
		return "rows"
	}
}

// Unit is one synchronization unit: a contiguous range of a parameter
// matrix's flat data.
type Unit struct {
	Param  int // index into the model's parameter list
	Offset int // start offset in the parameter's Data
	Len    int // number of scalars
}

// Partition is the unit decomposition of one model architecture. It is
// shared (read-only) by all workers and the server.
type Partition struct {
	Gran  Granularity
	units []Unit
}

// NewPartition decomposes params at the given granularity.
func NewPartition(params []*tensor.Matrix, g Granularity) *Partition {
	p := &Partition{Gran: g}
	for pi, m := range params {
		switch g {
		case Layers:
			p.units = append(p.units, Unit{Param: pi, Offset: 0, Len: len(m.Data)})
		case Elements:
			for off := range m.Data {
				p.units = append(p.units, Unit{Param: pi, Offset: off, Len: 1})
			}
		default: // Rows
			for r := 0; r < m.Rows; r++ {
				p.units = append(p.units, Unit{Param: pi, Offset: r * m.Cols, Len: m.Cols})
			}
		}
	}
	return p
}

// NumUnits returns the number of synchronization units.
func (p *Partition) NumUnits() int { return len(p.units) }

// Unit returns the descriptor of unit u.
func (p *Partition) Unit(u int) Unit { return p.units[u] }

// Slice returns a mutable view of unit u inside params (which must have the
// architecture the partition was built from).
func (p *Partition) Slice(params []*tensor.Matrix, u int) []float32 {
	un := p.units[u]
	return params[un.Param].Data[un.Offset : un.Offset+un.Len]
}

// Widths returns the length of every unit, in unit order (the shape the
// compression codec is initialized with).
func (p *Partition) Widths() []int {
	w := make([]int, len(p.units))
	for i, u := range p.units {
		w[i] = u.Len
	}
	return w
}

// MaxUnitLen returns the longest unit's length (sizes a decode buffer).
func (p *Partition) MaxUnitLen() int {
	m := 0
	for _, u := range p.units {
		if u.Len > m {
			m = u.Len
		}
	}
	return m
}

// WireSize returns the compressed on-wire size of unit u in bytes,
// including the per-unit index overhead the paper charges against finer
// granularity.
func (p *Partition) WireSize(u int) int {
	return compress.RowWireSize(p.units[u].Len)
}

// TotalWireSize returns the compressed size of the whole model plus all
// per-unit indexing overhead — what one full synchronization transmits.
func (p *Partition) TotalWireSize() int {
	total := 0
	for u := range p.units {
		total += p.WireSize(u)
	}
	return total
}

// IndexOverhead returns the bytes spent on per-unit headers for a full
// model transmission; Sec. III-A's management-cost argument made concrete.
func (p *Partition) IndexOverhead() int {
	total := 0
	for u := range p.units {
		total += p.WireSize(u) - (p.units[u].Len+7)/8
	}
	return total
}

// GradStore holds per-unit accumulated gradients for one model replica.
// Workers accumulate locally computed gradients in one (Algo. 1 line 3);
// the server keeps one per worker for averaged, not-yet-pulled gradients
// (the per-worker copies of Fig. 5).
//
// The server's W stores come from one NewGradStores call and are laid out
// unit-major: unit u's W copies lie side by side in one span, worker w's at
// [w·len(u), (w+1)·len(u)), and each store's unit is a capped view into it,
// so AddUnitAll — a merge adding its row into every copy — is one long
// y += a·x instead of W short ones. These stores also flag which units may
// hold unconsumed mass, so Backlog — the rejoin resync listing — runs the
// mean-abs scan over the flagged units only. The flags are unit-major too,
// (unit u, worker w) at u·W + w, so a fan-out marks W adjacent bytes with one
// copy. A unit belongs to exactly one shard, so writers under different
// shard locks write different floats and bytes and need nothing else between
// them (the -race stage runs TestGradStoreShardWritersShareFlags on exactly
// that). Worker-local stores (NewGradStore) skip the tracking: they
// Accumulate over the whole model every iteration, so every flag would
// always be set.
type GradStore struct {
	part *Partition
	data [][]float32
	slab *slab // shared by the stores of one NewGradStores call; nil = untracked
	w    int   // this store's worker within slab
}

// slab is what the stores of one NewGradStores call share.
type slab struct {
	spans [][]float32 // per unit: its W copies
	dirty []bool      // per (unit u, worker w) at u·W + w: possibly nonzero mass
	set   []bool      // W trues, copied over a unit's flags by a fan-out
}

// NewGradStore allocates a zeroed store for the partition with no dirty
// tracking.
func NewGradStore(p *Partition) *GradStore {
	g := &GradStore{part: p, data: make([][]float32, p.NumUnits())}
	for i := range g.data {
		g.data[i] = make([]float32, p.Unit(i).Len)
	}
	return g
}

// NewGradStores allocates workers zeroed stores, unit-major and with
// dirty-unit tracking, for use under sm's shard locks: unit u's data and
// flags, in every store, are guarded by whatever lock the caller uses for
// u's shard.
func NewGradStores(p *Partition, sm *ShardMap, workers int) []*GradStore {
	if sm.NumUnits() != p.NumUnits() {
		panic(fmt.Sprintf("rowsync: shard map covers %d units, partition has %d", sm.NumUnits(), p.NumUnits()))
	}
	sl := &slab{spans: make([][]float32, p.NumUnits()), dirty: make([]bool, p.NumUnits()*workers), set: make([]bool, workers)}
	stores := make([]*GradStore, workers)
	for w := range stores {
		sl.set[w] = true
		stores[w] = &GradStore{part: p, data: make([][]float32, p.NumUnits()), slab: sl, w: w}
	}
	for u, un := range p.units {
		sl.spans[u] = make([]float32, workers*un.Len)
		for w, g := range stores {
			g.data[u] = sl.spans[u][w*un.Len : (w+1)*un.Len : (w+1)*un.Len]
		}
	}
	return stores
}

// FanTile is the length of the scratch a fan-out tiles a narrow row into.
const FanTile = 256

// AddUnitAll adds vals, scaled by scale, into unit u of every store in
// stores — one NewGradStores result, whole — element for element what
// AddUnit on each of them gives. A row narrower than the vector body's
// 32-column pass is first repeated across tile, the caller's scratch, and
// u's span is walked against that; a wider row goes copy by copy against
// itself. The caller holds u's shard lock, which guards tile too.
func AddUnitAll(stores []*GradStore, u int, vals []float32, scale float32, tile *[FanTile]float32) {
	sl, n := stores[0].slab, len(vals)
	if sl == nil || len(stores) != len(sl.set) || n*len(stores) != len(sl.spans[u]) {
		panic(fmt.Sprintf("rowsync: AddUnitAll of a %d-wide row into unit %d of %d stores: a different width, or not one NewGradStores result", n, u, len(stores)))
	}
	span, src := sl.spans[u], vals
	if n > 0 && n < 32 {
		src = tile[:min(len(span), FanTile/n*n)]
		copy(src, vals)
		for have := n; have < len(src); have *= 2 {
			copy(src[have:], src[:have])
		}
	}
	for at := 0; at < len(span); at += len(src) {
		chunk := span[at:min(at+len(src), len(span))]
		tensor.AXPY(chunk, src[:len(chunk)], scale)
	}
	copy(sl.dirty[u*len(sl.set):], sl.set)
}

// setDirty records whether unit u may hold mass; an untracked store keeps
// no flags.
func (g *GradStore) setDirty(u int, dirty bool) {
	if g.slab != nil {
		g.slab.dirty[u*len(g.slab.set)+g.w] = dirty
	}
}

// Accumulate adds a gradient snapshot (matrices matching the partition's
// architecture) into the store.
func (g *GradStore) Accumulate(grads []*tensor.Matrix) {
	for u := range g.data {
		un := g.part.Unit(u)
		src := grads[un.Param].Data[un.Offset : un.Offset+un.Len]
		dst := g.data[u]
		for i, v := range src {
			dst[i] += v
		}
		g.setDirty(u, true)
	}
}

// AddUnit adds vals into unit u, scaled by scale.
func (g *GradStore) AddUnit(u int, vals []float32, scale float32) {
	dst := g.data[u]
	if len(vals) != len(dst) {
		panic(fmt.Sprintf("rowsync: AddUnit %d width %d != %d", u, len(vals), len(dst)))
	}
	tensor.AXPY(dst, vals, scale)
	g.setDirty(u, true)
}

// Unit returns the accumulated gradient of unit u (a live view).
func (g *GradStore) Unit(u int) []float32 { return g.data[u] }

// ZeroUnit clears unit u (after it has been transmitted, Algo. 1 line 10).
func (g *GradStore) ZeroUnit(u int) {
	clear(g.data[u])
	g.setDirty(u, false)
}

// Backlog returns the units with nonzero accumulated mass, ascending. On a
// tracked store it runs the mean-abs scan over the flagged units only
// (unflagging those whose mass cancelled back to zero); an untracked store
// scans every unit. The caller must hold every shard lock of a tracked
// store.
func (g *GradStore) Backlog() []int {
	var units []int
	for u := range g.data {
		if g.slab != nil && !g.slab.dirty[u*len(g.slab.set)+g.w] {
			continue
		}
		if g.MeanAbs(u) != 0 {
			units = append(units, u)
		} else {
			// Additions cancelled out exactly; the unit carries no mass a
			// rejoin would need.
			g.setDirty(u, false)
		}
	}
	return units
}

// MeanAbs returns the mean absolute accumulated gradient of unit u — the
// contribution term of the importance metric (Algo. 3). math.Abs clears the
// sign bit instead of branching on it; the sum is bit-identical to
// subtracting the negatives (s − v = s + |v|, and a −0 adds +0 to a sum that
// is never −0 — TestMeanAbsMatchesReference).
func (g *GradStore) MeanAbs(u int) float64 {
	d := g.data[u]
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, v := range d {
		s += math.Abs(float64(v))
	}
	return s / float64(len(d))
}

// NumUnits returns the number of units in the store.
func (g *GradStore) NumUnits() int { return len(g.data) }
