package engine

import (
	"testing"

	"rog/internal/compress"
)

// seedCopies merges one row per unit from worker 1 at iteration iter, so
// every worker's averaged copy holds mass in every unit.
func seedCopies(s *State, iter int64) {
	for u := 0; u < s.part.NumUnits(); u++ {
		vals := make([]float32, s.part.Unit(u).Len)
		for i := range vals {
			vals[i] = float32(1+(i+u)%3) * float32(1-2*(i%2))
		}
		s.Merge(1, u, vals, iter)
	}
}

func allUnitIDs(s *State) []int { return allUnits(s.part.NumUnits()).Units }

// TestDownlinkHoldTakeRelease walks the pull half's contract on one worker:
// Hold empties the planned units into payloads, a merge landing afterwards
// stays in the copy, Take settles a unit once, Release folds back exactly
// what the untaken payloads carried, and a second Hold over an unsettled one
// takes its rows back first instead of dropping them.
func TestDownlinkHoldTakeRelease(t *testing.T) {
	s, part := testState(t, 3)
	seedCopies(s, 1)
	d := NewDownlink(0, part)
	units := allUnitIDs(s)

	d.Hold(s, units)
	for _, u := range units {
		if got := s.Acc[0].MeanAbs(u); got != 0 {
			t.Fatalf("unit %d still holds %g after Hold", u, got)
		}
		if got := s.Acc[2].MeanAbs(u); got == 0 {
			t.Fatalf("Hold for worker 0 drained worker 2's unit %d", u)
		}
	}
	seedCopies(s, 2) // lands while the pull is out
	late0 := append([]float32(nil), s.Acc[0].Unit(0)...)
	late1 := append([]float32(nil), s.Acc[0].Unit(1)...)

	p, ok := d.Take(0)
	if !ok || p.Row != 0 {
		t.Fatalf("Take(0) = row %d, held %v", p.Row, ok)
	}
	if _, again := d.Take(0); again {
		t.Fatal("unit 0 settled twice")
	}
	carried := make([]float32, part.Unit(1).Len)
	compress.Decode(d.Held(1), carried)

	d.Release(s)
	for i, v := range s.Acc[0].Unit(0) {
		if v != late0[i] {
			t.Fatalf("delivered unit 0[%d] = %g after Release, want only the late merge's %g", i, v, late0[i])
		}
	}
	for i, v := range s.Acc[0].Unit(1) {
		if want := late1[i] + carried[i]; v != want {
			t.Fatalf("undelivered unit 1[%d] = %g, want the late merge's %g plus the carried %g", i, v, late1[i], carried[i])
		}
	}
	if _, ok := d.Take(1); ok {
		t.Fatal("Release left unit 1 held")
	}

	// A pull planned over an unsettled one takes that one's rows back.
	d.Hold(s, []int{2})
	carried = make([]float32, part.Unit(2).Len)
	compress.Decode(d.Held(2), carried)
	d.Hold(s, []int{3})
	for i, v := range s.Acc[0].Unit(2) {
		if v != carried[i] {
			t.Fatalf("unsettled unit 2[%d] = %g after the next Hold, want the carried %g back", i, v, carried[i])
		}
	}
}

// TestDownlinkHoldsWithoutAllocating pins the allocation trap the pull half
// was built around: holding a pull's payloads until delivery — including a
// cut pull that folds half of them back — must cost nothing beyond what
// encoding the rows costs anyway (a per-pull map or slice would show here).
func TestDownlinkHoldsWithoutAllocating(t *testing.T) {
	s, part := testState(t, 3)
	d := NewDownlink(0, part)
	units := allUnitIDs(s)
	vals := make([][]float32, len(units))
	for u := range vals {
		vals[u] = make([]float32, part.Unit(u).Len)
	}
	ref := compress.NewCodec(part.Widths())
	encodeOnly := testing.AllocsPerRun(50, func() {
		for _, u := range units {
			ref.Encode(u, vals[u])
		}
	})
	it := int64(0)
	cycle := func() {
		it++
		s.MergeBatch(1, units, vals, it)
		d.Hold(s, units)
		for _, u := range units[:len(units)/2] {
			d.Take(u)
		}
		d.Release(s)
	}
	cycle() // grow the reused buffers once
	if got := testing.AllocsPerRun(50, cycle); got != encodeOnly {
		t.Fatalf("a held pull allocated %.1f times, encoding its rows alone %.1f", got, encodeOnly)
	}
}
