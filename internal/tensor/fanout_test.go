package tensor_test

import (
	"math"
	"slices"
	"testing"

	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// addLoop is GradStore.AddUnit's arithmetic as the scalar loop it was before
// it ran through AXPY.
func addLoop(dst, vals []float32, scale float32) {
	for i, v := range vals {
		dst[i] += v * scale
	}
}

// TestFanOutMatchesPerWorkerAddUnit holds rowsync.AddUnitAll — a merge's row
// added into all W per-worker copies through tensor.AXPY, tiled when the row
// is narrow, copy by copy when it is wide — to W independent NewGradStore
// stores updated by the scalar loop, bit for bit (NaN payloads exempt, as in
// SameBits), once with the vector body and once with the Go body (the test
// lives here to reach the gate). Every width 1–130, W from 1 to 256, scales
// 1/3, 1/256 and −1, values with ±0, subnormals, ±Inf and NaN; single-worker
// ZeroUnit and restores (AddUnit at scale 1) land in between, and each
// store's Backlog must equal its reference's full scan.
func TestFanOutMatchesPerWorkerAddUnit(t *testing.T) {
	params := make([]*tensor.Matrix, 130)
	for i := range params {
		params[i] = tensor.New(1, i+1)
	}
	p := rowsync.NewPartition(params, rowsync.Layers)
	vec := *tensor.UseAVX
	defer func() { *tensor.UseAVX = vec }()
	r := tensor.NewRNG(29)
	row := func(u int) []float32 {
		vals := make([]float32, p.Unit(u).Len)
		for i := range vals {
			vals[i] = tensor.DrawAwkward(r, 64)
		}
		return vals
	}
	var tile [rowsync.FanTile]float32
	for _, *tensor.UseAVX = range []bool{vec, false} {
		for _, workers := range []int{1, 2, 3, 7, 64, 256} {
			stores := rowsync.NewGradStores(p, rowsync.NewShardMap(p.NumUnits(), 4), workers)
			refs := make([]*rowsync.GradStore, workers)
			for w := range refs {
				refs[w] = rowsync.NewGradStore(p)
			}
			check := func(step, u int) {
				for w, ref := range refs {
					got, want := stores[w].Unit(u), ref.Unit(u)
					if at, ok := tensor.SameBits(tensor.NewFrom(1, len(got), got), tensor.NewFrom(1, len(want), want)); !ok {
						t.Fatalf("avx=%v W=%d step %d: worker %d unit %d (width %d) element %d is %v (%#x), per-worker loop %v (%#x)",
							*tensor.UseAVX, workers, step, w, u, len(want), at, got[at], math.Float32bits(got[at]), want[at], math.Float32bits(want[at]))
					}
				}
			}
			for step := range 3 * p.NumUnits() {
				u := step % p.NumUnits()
				vals, scale := row(u), []float32{1.0 / 3, 1.0 / 256, -1}[r.Intn(3)]
				rowsync.AddUnitAll(stores, u, vals, scale, &tile)
				for _, ref := range refs {
					addLoop(ref.Unit(u), vals, scale)
				}
				check(step, u)
				w, v := r.Intn(workers), r.Intn(p.NumUnits())
				switch r.Intn(4) {
				case 0:
					stores[w].ZeroUnit(v)
					refs[w].ZeroUnit(v)
				case 1:
					restore := row(v)
					stores[w].AddUnit(v, restore, 1)
					addLoop(refs[w].Unit(v), restore, 1)
				}
				check(step, v)
			}
			for w, ref := range refs {
				if got, want := stores[w].Backlog(), ref.Backlog(); !slices.Equal(got, want) {
					t.Fatalf("avx=%v W=%d: worker %d backlog %v, full scan %v", *tensor.UseAVX, workers, w, got, want)
				}
			}
		}
	}
}
