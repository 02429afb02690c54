package rowsync

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rog/internal/tensor"
)

// TestShardMapBalancedContiguous checks the map's two structural
// invariants: shard ranges are contiguous, cover every unit exactly once,
// and differ in size by at most one unit.
func TestShardMapBalancedContiguous(t *testing.T) {
	for _, tc := range []struct{ units, shards int }{
		{1, 1}, {10, 1}, {10, 3}, {10, 10}, {7, 16}, {97, 8}, {256, 5},
	} {
		sm := NewShardMap(tc.units, tc.shards)
		want := tc.shards
		if want > tc.units {
			want = tc.units
		}
		if want < 1 {
			want = 1
		}
		if got := sm.NumShards(); got != want {
			t.Fatalf("units=%d shards=%d: NumShards=%d, want %d", tc.units, tc.shards, got, want)
		}
		next, minSz, maxSz := 0, tc.units, 0
		for s := 0; s < sm.NumShards(); s++ {
			lo, hi := sm.Range(s)
			if lo != next || hi <= lo {
				t.Fatalf("units=%d shards=%d: shard %d range [%d,%d) not contiguous after %d",
					tc.units, tc.shards, s, lo, hi, next)
			}
			if hi-lo < minSz {
				minSz = hi - lo
			}
			if hi-lo > maxSz {
				maxSz = hi - lo
			}
			next = hi
		}
		if next != tc.units {
			t.Fatalf("units=%d shards=%d: ranges end at %d", tc.units, tc.shards, next)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("units=%d shards=%d: imbalanced shard sizes [%d,%d]", tc.units, tc.shards, minSz, maxSz)
		}
	}
}

// TestShardMapShardOfMatchesRanges cross-checks the arithmetic ShardOf
// against a linear scan of the ranges for every unit.
func TestShardMapShardOfMatchesRanges(t *testing.T) {
	for _, tc := range []struct{ units, shards int }{
		{10, 3}, {97, 8}, {64, 64}, {1000, 7}, {5, 2},
	} {
		sm := NewShardMap(tc.units, tc.shards)
		for u := 0; u < tc.units; u++ {
			got := sm.ShardOf(u)
			lo, hi := sm.Range(got)
			if u < lo || u >= hi {
				t.Fatalf("units=%d shards=%d: ShardOf(%d)=%d but its range is [%d,%d)",
					tc.units, tc.shards, u, got, lo, hi)
			}
		}
	}
}

// TestShardMapEdgeCases pins the clamping rules: zero units, zero/negative
// shard counts and out-of-range lookups.
func TestShardMapEdgeCases(t *testing.T) {
	sm := NewShardMap(0, 4)
	if sm.NumShards() != 1 || sm.NumUnits() != 0 {
		t.Fatalf("empty map: %d shards over %d units, want 1 over 0", sm.NumShards(), sm.NumUnits())
	}
	if sm := NewShardMap(5, 0); sm.NumShards() != 1 {
		t.Fatalf("shards=0 not clamped to 1")
	}
	if sm := NewShardMap(5, -3); sm.NumShards() != 1 {
		t.Fatalf("negative shards not clamped to 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ShardOf did not panic")
		}
	}()
	NewShardMap(5, 2).ShardOf(5)
}

// TestVersionStoreShardedMatchesUnsharded drives identical update
// sequences through a 1-shard and a many-shard store and checks every
// observable (per-row versions, global and per-shard minima, staleness)
// agrees — the rowsync half of the tentpole's parity guarantee.
func TestVersionStoreShardedMatchesUnsharded(t *testing.T) {
	const workers, units = 4, 13
	ref := NewVersionStore(workers, units)
	sm := NewShardMap(units, 5)
	vs := NewVersionStoreSharded(workers, units, sm)

	type ev struct {
		w, u int
		iter int64
	}
	var evs []ev
	seed := uint64(42)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	iters := make([][]int64, workers)
	for w := range iters {
		iters[w] = make([]int64, units)
	}
	for i := 0; i < 500; i++ {
		w, u := next(workers), next(units)
		iters[w][u]++
		evs = append(evs, ev{w, u, iters[w][u]})
	}
	for _, e := range evs {
		ref.Update(e.w, e.u, e.iter)
		vs.Update(e.w, e.u, e.iter)
		if ref.Min() != vs.Min() {
			t.Fatalf("after (%d,%d,%d): min %d (sharded) != %d (unsharded)",
				e.w, e.u, e.iter, vs.Min(), ref.Min())
		}
	}
	for w := 0; w < workers; w++ {
		for u := 0; u < units; u++ {
			if ref.Get(w, u) != vs.Get(w, u) {
				t.Fatalf("version (%d,%d): %d != %d", w, u, vs.Get(w, u), ref.Get(w, u))
			}
		}
	}
	// Detach/attach walk the same lattice on both stores.
	ref.Detach(2)
	vs.Detach(2)
	if ref.Min() != vs.Min() {
		t.Fatalf("post-detach min: %d != %d", vs.Min(), ref.Min())
	}
	ref.Attach(2)
	vs.Attach(2)
	if ref.Min() != vs.Min() {
		t.Fatalf("post-attach min: %d != %d", vs.Min(), ref.Min())
	}
	for u := 0; u < units; u++ {
		if ref.Get(2, u) != vs.Get(2, u) {
			t.Fatalf("re-baselined version (2,%d): %d != %d", u, vs.Get(2, u), ref.Get(2, u))
		}
	}
}

// TestGradStoreShardedBacklogTracksDirtyUnits checks the satellite fix:
// the sharded store's Backlog comes from the per-unit dirty flags and
// must equal the full-scan answer of the unsharded store.
func TestGradStoreShardedBacklogTracksDirtyUnits(t *testing.T) {
	p := NewPartition(testModel(), Rows)
	sm := NewShardMap(p.NumUnits(), 3)
	g := NewGradStores(p, sm, 1)[0]
	ref := NewGradStore(p)

	add := func(u int, v float32) {
		vals := make([]float32, p.Unit(u).Len)
		for i := range vals {
			vals[i] = v
		}
		g.AddUnit(u, vals, 1)
		ref.AddUnit(u, vals, 1)
	}
	add(0, 1)
	add(2, 2)
	add(0, 1)
	got, want := g.Backlog(), ref.Backlog()
	if len(got) != len(want) {
		t.Fatalf("backlog %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("backlog %v, want %v", got, want)
		}
	}
	// Draining a unit clears its flag.
	g.ZeroUnit(0)
	ref.ZeroUnit(0)
	got, want = g.Backlog(), ref.Backlog()
	if len(got) != 1 || len(want) != 1 || got[0] != 2 {
		t.Fatalf("after drain: backlog %v, want [2]", got)
	}
	// A unit whose mass cancels to zero drops out of the dirty backlog.
	vals := make([]float32, p.Unit(2).Len)
	for i := range vals {
		vals[i] = -2
	}
	g.AddUnit(2, vals, 1)
	if bl := g.Backlog(); len(bl) != 0 {
		t.Fatalf("cancelled unit still in backlog: %v", bl)
	}
}

// TestGradStoreBacklogMatchesFullScan is the dirty flags' differential test:
// a seeded random sequence of AddUnit, Accumulate and ZeroUnit — with exact
// cancellations, the case the flags must prune — lands on a sharded store
// and on an untracked one, and after every step the tracked Backlog equals
// the untracked store's full mean-abs scan, ascending.
func TestGradStoreBacklogMatchesFullScan(t *testing.T) {
	p := NewPartition(testModel(), Rows)
	r := tensor.NewRNG(77)
	for _, shards := range []int{1, 3, p.NumUnits()} {
		g := NewGradStores(p, NewShardMap(p.NumUnits(), shards), 1)[0]
		ref := NewGradStore(p)
		for step := 0; step < 2000; step++ {
			u := r.Intn(p.NumUnits())
			switch op := r.Intn(10); {
			case op < 5:
				vals := make([]float32, p.Unit(u).Len)
				for i := range vals {
					vals[i] = float32(r.Intn(5) - 2) // small integers: sums cancel exactly
				}
				g.AddUnit(u, vals, 1)
				ref.AddUnit(u, vals, 1)
			case op < 7:
				// Exact cancellation: add the unit's own negation.
				neg := append([]float32(nil), ref.Unit(u)...)
				g.AddUnit(u, neg, -1)
				ref.AddUnit(u, neg, -1)
			case op < 9:
				g.ZeroUnit(u)
				ref.ZeroUnit(u)
			default:
				grads := testModel()
				for _, m := range grads {
					for i := range m.Data {
						m.Data[i] = float32(r.Intn(3) - 1)
					}
				}
				g.Accumulate(grads)
				ref.Accumulate(grads)
			}
			if got, want := g.Backlog(), ref.Backlog(); !slices.Equal(got, want) {
				t.Fatalf("shards=%d step %d: backlog %v, full scan %v", shards, step, got, want)
			}
		}
	}
}

// TestGradStoreShardWritersShareFlags exercises the sharing argument in the
// GradStore comment under -race: one goroutine per shard hammers its own
// unit range of one NewGradStores result (no locks — each stands for a writer
// holding its shard's lock) with AddUnit and ZeroUnit on one store and, with
// W > 1, fan-outs into all of them and per-worker ZeroUnit. Different units
// are different floats and flag bytes, so the detector must stay
// quiet and every store must end exactly as a sequential replay leaves it.
func TestGradStoreShardWritersShareFlags(t *testing.T) {
	p := NewPartition(testModel(), Rows)
	sm := NewShardMap(p.NumUnits(), 4)
	for _, workers := range []int{1, 4} {
		// script applies one writer's rounds over [lo, hi) to stores.
		script := func(stores []*GradStore, lo, hi int, tile *[FanTile]float32) {
			for round := 0; round < 500; round++ {
				for u := lo; u < hi; u++ {
					vals := make([]float32, p.Unit(u).Len)
					for i := range vals {
						vals[i] = 1
					}
					if workers == 1 {
						stores[0].AddUnit(u, vals, 1)
					} else {
						AddUnitAll(stores, u, vals, 1, tile)
					}
					if (round+u)%3 == 0 {
						stores[(round+u)%workers].ZeroUnit(u)
					}
				}
			}
		}
		conc, serial := NewGradStores(p, sm, workers), NewGradStores(p, sm, workers)
		var wg sync.WaitGroup
		for s := 0; s < sm.NumShards(); s++ {
			lo, hi := sm.Range(s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				script(conc, lo, hi, new([FanTile]float32))
			}()
		}
		wg.Wait()
		script(serial, 0, p.NumUnits(), new([FanTile]float32))
		for w := range conc {
			if got, want := conc[w].Backlog(), serial[w].Backlog(); !slices.Equal(got, want) || len(want) == 0 {
				t.Fatalf("W=%d: worker %d backlog after concurrent shard writers = %v, sequential replay %v", workers, w, got, want)
			}
			for u := 0; u < p.NumUnits(); u++ {
				if !slices.Equal(conc[w].Unit(u), serial[w].Unit(u)) {
					t.Fatalf("W=%d: worker %d unit %d = %v, sequential replay %v", workers, w, u, conc[w].Unit(u), serial[w].Unit(u))
				}
			}
		}
	}
}

// TestGradStoreAddUnitAllocatesNothing guards the merge fan-out: marking a
// unit dirty on a tracked store is a store into a flag, not a map insert,
// and a fan-out tiles narrow rows in the caller's scratch.
func TestGradStoreAddUnitAllocatesNothing(t *testing.T) {
	p := NewPartition(testModel(), Rows)
	stores := NewGradStores(p, NewShardMap(p.NumUnits(), 3), 64)
	g := stores[5]
	vals := make([]float32, p.Unit(1).Len)
	wide := make([]float32, 40)
	wideStores := NewGradStores(NewPartition([]*tensor.Matrix{tensor.New(2, 40)}, Rows), NewShardMap(2, 1), 64)
	var tile [FanTile]float32
	if n := testing.AllocsPerRun(100, func() {
		g.AddUnit(1, vals, 0.5)
		g.ZeroUnit(1)
		AddUnitAll(stores, 1, vals, 0.5, &tile)
		AddUnitAll(wideStores, 1, wide, 0.5, &tile)
	}); n != 0 {
		t.Fatalf("AddUnit+ZeroUnit+AddUnitAll on tracked stores: %v allocs, want 0", n)
	}
}

// FuzzFanOutMatchesAddUnit holds AddUnitAll to the scalar loop AddUnit once
// was, run on every worker's copy, over widths 0–130 (both sides of the
// tiling threshold and of the tile), W 1–300, scales 1/3, 1/256, −1 or a
// normal draw, and accumulators and rows with ±0, subnormals, ±Inf and NaN
// mixed in at mix/256. A neighbouring unit must stay untouched, and every
// store's Backlog must list the unit. Two NaNs match whatever their payloads
// (a NaN sum meeting a NaN product keeps the operand the compiler's register
// choice puts first).
func FuzzFanOutMatchesAddUnit(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(256), uint8(0))
	f.Add(uint64(2), uint8(6), uint16(64), uint8(32))
	f.Add(uint64(3), uint8(8), uint16(255), uint8(255))
	f.Add(uint64(4), uint8(64), uint16(4), uint8(16))
	f.Add(uint64(5), uint8(100), uint16(4), uint8(0))
	f.Add(uint64(6), uint8(0), uint16(7), uint8(0))
	f.Add(uint64(7), uint8(31), uint16(299), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, workers uint16, mix uint8) {
		r := tensor.NewRNG(seed)
		n, w := int(width)%131, 1+int(workers)%300
		draw := func() float32 {
			if r.Intn(256) >= int(mix) {
				return float32(r.Norm())
			}
			sign := uint32(r.Intn(2)) << 31
			return math.Float32frombits(sign | [4]uint32{0, uint32(1 + r.Intn(1<<23-1)), 0x7f800000, 0x7fc00000}[r.Intn(4)])
		}
		p := NewPartition([]*tensor.Matrix{tensor.New(1, n), tensor.New(1, 3)}, Layers)
		stores := NewGradStores(p, NewShardMap(2, 2), w)
		want := make([][]float32, w)
		for c, g := range stores {
			for i := range g.Unit(0) {
				g.Unit(0)[i] = draw()
			}
			want[c] = append([]float32(nil), g.Unit(0)...)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = draw()
		}
		scale := [4]float32{1.0 / 3, 1.0 / 256, -1, float32(r.Norm())}[r.Intn(4)]
		var tile [FanTile]float32
		AddUnitAll(stores, 0, vals, scale, &tile)
		for c, g := range stores {
			for i, v := range vals {
				want[c][i] += v * scale
			}
			for i, got := range g.Unit(0) {
				if math.Float32bits(got) != math.Float32bits(want[c][i]) && !(got != got && want[c][i] != want[c][i]) {
					t.Fatalf("width %d W=%d scale %v: worker %d element %d is %v (%#x), per-worker loop %v (%#x)",
						n, w, scale, c, i, got, math.Float32bits(got), want[c][i], math.Float32bits(want[c][i]))
				}
			}
			if slices.ContainsFunc(g.Unit(1), func(v float32) bool { return v != 0 }) {
				t.Fatalf("width %d W=%d: worker %d's neighbouring unit moved: %v", n, w, c, g.Unit(1))
			}
			var backlog []int
			if slices.ContainsFunc(want[c], func(v float32) bool { return v != 0 }) {
				backlog = []int{0}
			}
			if bl := g.Backlog(); !slices.Equal(bl, backlog) {
				t.Fatalf("width %d W=%d: worker %d backlog %v, want %v", n, w, c, bl, backlog)
			}
		}
	})
}
