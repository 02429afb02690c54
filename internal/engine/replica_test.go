package engine

import (
	"reflect"
	"slices"
	"testing"

	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

func testReplica(g rowsync.Granularity, momentum float64) (*Replica, *rowsync.Partition) {
	model := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	part := rowsync.NewPartition(model.Params(), g)
	return NewReplica(model, part, 0.1, momentum), part
}

// TestReplicaEncodeRestoreConservesMass cuts a push short: a unit encoded
// for the wire and then restored must leave accumulator + codec residual
// holding exactly the mass they held before, so encoding it again yields
// the very same payload. (Integer gradients keep every scale and residual
// exactly representable.)
func TestReplicaEncodeRestoreConservesMass(t *testing.T) {
	r, _ := testReplica(rowsync.Rows, 0)
	const u = 2
	g := r.Local.Unit(u)
	for i := range g {
		g[i] = float32([]int{3, -1, 5, -3}[i%4])
	}
	first := r.EncodeUnit(u)
	if r.Local.MeanAbs(u) != 0 {
		t.Fatal("EncodeUnit left mass in the accumulator")
	}
	r.Restore(first)
	if r.Local.MeanAbs(u) == 0 {
		t.Fatal("Restore returned nothing to the accumulator")
	}
	first.Bits = slices.Clone(first.Bits) // the next EncodeUnit(u) reuses them
	if again := r.EncodeUnit(u); !reflect.DeepEqual(again, first) {
		t.Fatalf("re-encode after restore = %+v, want the original %+v", again, first)
	}
	if got := r.PushIter[u]; got != 0 {
		t.Fatalf("an undelivered unit was stamped %d", got)
	}
}

// TestReplicaRebaseMonotone checks the resume rule (Replica.Rejoin): stamps
// below the baseline rise to it, stamps above it stay, the iteration
// fast-forwards to the baseline, and a lower baseline moves nothing back.
func TestReplicaRebaseMonotone(t *testing.T) {
	r, _ := testReplica(rowsync.Rows, 0)
	r.Stamp(0, 3)
	r.Stamp(1, 9)
	if it := r.Rejoin(4, 5); it != 5 || r.PushIter[0] != 5 || r.PushIter[1] != 9 || r.PushIter[2] != 5 {
		t.Fatalf("after Rejoin(4, 5): iteration %d, stamps %v", it, r.PushIter[:3])
	}
	if it := r.Rejoin(7, 2); it != 7 || r.PushIter[0] != 5 || r.PushIter[1] != 9 {
		t.Fatalf("Rejoin(7, 2) moved back: iteration %d, stamps %v", it, r.PushIter[:3])
	}
	if v := r.PushView(1, 10, 4, 0.5); v.Rows[1].Iter != 9 || v.Rows[2].Iter != 5 || v.Min != 4 || v.Worker != 1 {
		t.Fatalf("push view does not carry the stamps: %+v", v)
	}
}

// TestReplicaApplyWalksRows applies a layer-granularity unit (a whole
// matrix) twice with momentum and requires the result of walking the same
// values through the optimizer row by row — momentum state per row, as the
// row-granularity run keeps it.
func TestReplicaApplyWalksRows(t *testing.T) {
	r, part := testReplica(rowsync.Layers, 0.9)
	ref := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	opt := nn.NewSGD(0.1, 0.9)
	rng := tensor.NewRNG(7)
	for step := 0; step < 2; step++ {
		for u := 0; u < part.NumUnits(); u++ {
			un := part.Unit(u)
			vals := make([]float32, un.Len)
			for i := range vals {
				vals[i] = rng.Float32()*2 - 1
			}
			r.Apply(u, vals)
			p := ref.Params()[un.Param]
			for row := 0; row < p.Rows; row++ {
				opt.ApplyRow(ref.Params(), un.Param, row, vals[row*p.Cols:(row+1)*p.Cols])
			}
		}
	}
	for pi, p := range r.Model.Params() {
		if !reflect.DeepEqual(p.Data, ref.Params()[pi].Data) {
			t.Fatalf("param %d diverged from the per-row reference", pi)
		}
	}
}

// TestReplicaApplyPartialRow checks the element-granularity branch: a unit
// covering part of a row takes the plain SGD step.
func TestReplicaApplyPartialRow(t *testing.T) {
	r, part := testReplica(rowsync.Elements, 0.9)
	const u = 5
	un := part.Unit(u)
	p := r.Model.Params()[un.Param]
	before := p.Data[un.Offset]
	r.Apply(u, []float32{2})
	if want := before - float32(0.1)*2; p.Data[un.Offset] != want {
		t.Fatalf("element step = %v, want %v", p.Data[un.Offset], want)
	}
}

// TestReplicaEncodeUnitDoesNotAllocate guards the per-row push path both
// runtimes share: a unit's sign bits are the Replica's, reused by every
// EncodeUnit of that unit (a payload is valid until the next one), so
// encoding a whole push allocates nothing — at any granularity.
func TestReplicaEncodeUnitDoesNotAllocate(t *testing.T) {
	for _, g := range []rowsync.Granularity{rowsync.Rows, rowsync.Layers, rowsync.Elements} {
		r, part := testReplica(g, 0)
		push := func() {
			for u := 0; u < part.NumUnits(); u++ {
				r.Local.Unit(u)[0] = float32(u%3) - 1
				r.EncodeUnit(u)
			}
		}
		if allocs := testing.AllocsPerRun(50, push); allocs != 0 {
			t.Fatalf("granularity %v: encoding a push allocates %.1f times, want 0", g, allocs)
		}
	}
}

// TestReplicaApplyDoesNotAllocate guards the per-row pull path both runtimes
// share: the parameter list is built once, not per applied row. Whole rows
// (momentum) and partial rows (element granularity) alike.
func TestReplicaApplyDoesNotAllocate(t *testing.T) {
	for _, g := range []rowsync.Granularity{rowsync.Rows, rowsync.Elements} {
		r, part := testReplica(g, 0.9)
		vals := make([]float32, part.MaxUnitLen())
		pull := func() {
			for u := 0; u < part.NumUnits(); u++ {
				r.Apply(u, vals[:part.Unit(u).Len])
			}
		}
		pull() // the optimizer builds its velocity on first use
		if allocs := testing.AllocsPerRun(50, pull); allocs != 0 {
			t.Fatalf("granularity %v: applying a pull allocates %.1f times, want 0", g, allocs)
		}
	}
}
