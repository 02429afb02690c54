package engine

import (
	"math"
	"testing"

	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// TestApplyMirrorsObserve is WAL replay equivalence with no filesystem in
// the loop: state A runs a seeded mix of every live path while an observer
// feeds each Transition it emits to B.Apply, and the two must then agree
// bit for bit on everything a snapshot would carry.
func TestApplyMirrorsObserve(t *testing.T) {
	const workers = 4
	proto := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	units := part.NumUnits()
	build := func(shards int) *State {
		pol, err := New("rog", Params{Workers: workers, Threshold: 4, NumUnits: units})
		if err != nil {
			t.Fatal(err)
		}
		return NewStateSharded(pol, part, workers, 1.0, shards)
	}
	for _, shards := range []int{1, 4} {
		a, b := build(shards), build(shards)
		kinds := map[Kind]int{}
		a.Observe(func(tr Transition) {
			kinds[tr.Kind]++
			if !b.Apply(tr) {
				t.Errorf("shards=%d: Apply rejected the observed %+v", shards, tr)
			}
		})

		rng := tensor.NewRNG(uint64(40 + shards))
		row := func(u int) []float32 {
			vals := make([]float32, part.Unit(u).Len)
			for i := range vals {
				vals[i] = float32(rng.Norm())
			}
			return vals
		}
		// subset draws an ascending run of units, as a push or pull plan is.
		subset := func() []int {
			var us []int
			for u := 0; u < units; u++ {
				if rng.Intn(3) == 0 {
					us = append(us, u)
				}
			}
			return us
		}
		var (
			iter [workers]int64
			down [workers]*Peer
			dups int
		)
		for w := range down {
			down[w] = NewPeer(w, part)
		}
		for step := 0; step < 600; step++ {
			w := rng.Intn(workers)
			switch rng.Intn(9) {
			case 0, 1:
				us := subset()
				vals := make([][]float32, len(us))
				for i, u := range us {
					vals[i] = row(u)
				}
				iter[w]++
				a.MergeBatch(w, us, vals, iter[w])
			case 2:
				// A combined row: w's stamp carries the mass, a repeat of it is
				// a duplicate, and a second worker's stamp only re-stamps.
				u, w2 := rng.Intn(units), (w+1+rng.Intn(workers-1))%workers
				iter[w]++
				iter[w2]++
				first := Stamp{Worker: w, Iter: iter[w]}
				a.MergeCombined(u, row(u), []Stamp{first, first, {Worker: w2, Iter: iter[w2]}})
				dups++
			case 3:
				down[w].hold(a, subset())
			case 4:
				down[w].Take(rng.Intn(units))
			case 5:
				down[w].Settle(a, nil)
			case 6:
				if !a.IsActive(w) {
					// Rejoin: resync the backlog, losing the tail of it.
					tail := down[w].holdBacklog(a)
					down[w].Restore(a, tail[len(tail)/2:]...)
					iter[w] = max(iter[w], a.Attach(w))
				} else if a.ActiveWorkers() > 1 {
					a.Detach(w)
				}
			case 7:
				a.ObservePush(w, iter[w], 0.1+rng.Float64(), 0.2+rng.Float64(), rng.Intn(2) == 0)
			case 8:
				a.ObserveLoss(rng.Intn(5), rng.Intn(3), float64(rng.Intn(4096)))
			}
		}
		for k := KindMerge; k <= KindLoss; k++ {
			if kinds[k] == 0 {
				t.Fatalf("shards=%d: the mix never emitted kind %d", shards, k)
			}
		}

		for w := 0; w < workers; w++ {
			if a.IsActive(w) != b.IsActive(w) {
				t.Fatalf("shards=%d: worker %d attached %v vs %v", shards, w, a.IsActive(w), b.IsActive(w))
			}
			for u := 0; u < units; u++ {
				if av, bv := a.Versions.Get(w, u), b.Versions.Get(w, u); av != bv {
					t.Fatalf("shards=%d: version[%d][%d] %d vs %d", shards, w, u, av, bv)
				}
				av, bv := a.Acc[w].Unit(u), b.Acc[w].Unit(u)
				for i := range av {
					if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
						t.Fatalf("shards=%d: acc[%d][%d][%d] %v vs %v", shards, w, u, i, av[i], bv[i])
					}
				}
			}
		}
		if a.Versions.Min() != b.Versions.Min() {
			t.Fatalf("shards=%d: min %d vs %d", shards, a.Versions.Min(), b.Versions.Min())
		}
		for u := 0; u < units; u++ {
			if a.RowIter[u] != b.RowIter[u] {
				t.Fatalf("shards=%d: rowIter[%d] %d vs %d", shards, u, a.RowIter[u], b.RowIter[u])
			}
		}
		if a.Budget() != b.Budget() {
			t.Fatalf("shards=%d: budget %v vs %v", shards, a.Budget(), b.Budget())
		}
		// A dropped duplicate applied nothing, so it is not a transition: A
		// counted the ones the mix injected, B never saw them.
		ac, bc := a.ChurnSnapshot(), b.ChurnSnapshot()
		if ac.DuplicatesDropped != dups || bc.DuplicatesDropped != 0 {
			t.Fatalf("shards=%d: duplicates %d vs %d, want %d vs 0", shards, ac.DuplicatesDropped, bc.DuplicatesDropped, dups)
		}
		ac.DuplicatesDropped = 0
		if ac != bc {
			t.Fatalf("shards=%d: churn %+v vs %+v", shards, ac, bc)
		}
		if a.LossSnapshot() != b.LossSnapshot() {
			t.Fatalf("shards=%d: loss %+v vs %+v", shards, a.LossSnapshot(), b.LossSnapshot())
		}

		// Apply is also recovery's shape check: a value that does not fit
		// the run is refused and nothing happens.
		b.Observe(func(tr Transition) { t.Errorf("shards=%d: a rejected value was applied: %+v", shards, tr) })
		whole := make([]float32, part.Unit(0).Len)
		for _, bad := range []Transition{
			{Kind: KindMerge, Worker: -1, Vals: whole, Iter: 1 << 40},
			{Kind: KindMerge, Worker: workers, Vals: whole, Iter: 1 << 40},
			{Kind: KindMerge, Unit: units, Vals: whole, Iter: 1 << 40},
			{Kind: KindMerge, Vals: whole[1:], Iter: 1 << 40},
			{Kind: KindDrain, Unit: -1},
			{Kind: KindDrain, Worker: workers},
			{Kind: KindRestore, Vals: append(whole, 0)},
			{Kind: KindDetach, Worker: workers},
			{Kind: KindAttach, Worker: -1},
			{Kind: KindObserve, Worker: workers, Aux: 1},
			{Kind: 0},
			{Kind: KindLoss + 1},
		} {
			if b.Apply(bad) {
				t.Fatalf("shards=%d: Apply accepted %+v", shards, bad)
			}
		}
	}
}
