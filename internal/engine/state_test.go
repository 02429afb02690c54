package engine

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

func testState(t *testing.T, workers int) (*State, *rowsync.Partition) {
	t.Helper()
	proto := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	pol, err := New("ssp", Params{Workers: workers, Threshold: 4, NumUnits: part.NumUnits()})
	if err != nil {
		t.Fatal(err)
	}
	return NewStateSharded(pol, part, workers, 1.0, 1), part
}

// TestMergeShrinkToAttachedAveraging pushes one row before and after a
// detach: with all 3 workers attached the averaged contribution is v/3,
// with one detached it is v/2 — graceful degradation, not dilution.
func TestMergeShrinkToAttachedAveraging(t *testing.T) {
	s, part := testState(t, 3)
	vals := make([]float32, part.Unit(0).Len)
	for i := range vals {
		vals[i] = 3
	}
	s.Merge(0, 0, vals, 1)
	if got := s.Acc[1].Unit(0)[0]; got != 1 {
		t.Fatalf("3 attached: merged value = %v, want 1 (v/3)", got)
	}
	s.Detach(2)
	s.Merge(0, 0, vals, 2)
	if got := s.Acc[1].Unit(0)[0]; got != 2.5 {
		t.Fatalf("2 attached: merged value = %v, want 1 + 1.5 (v/2)", got)
	}
	// The detached worker's copy keeps accumulating the rejoin backlog.
	if got := s.Acc[2].Unit(0)[0]; got != 2.5 {
		t.Fatalf("detached copy = %v, want the same backlog", got)
	}
}

// TestMergeVersionStampsAndHook checks monotone version stamping, the
// per-unit freshness iterator, and the observer chain's view of a merge.
func TestMergeVersionStampsAndHook(t *testing.T) {
	s, part := testState(t, 2)
	var log [][3]int64
	s.Observe(func(tr Transition) {
		if tr.Kind != KindMerge || tr.Aux != 0.5 || len(tr.Vals) != part.Unit(1).Len {
			t.Errorf("observed %+v, want a merge of a whole row scaled 1/2", tr)
		}
		log = append(log, [3]int64{int64(tr.Worker), int64(tr.Unit), tr.Iter})
	})
	vals := make([]float32, part.Unit(1).Len)
	for i := range vals {
		vals[i] = 2
	}
	s.Merge(1, 1, vals, 5)
	s.Merge(1, 1, vals, 4) // stale duplicate: dropped whole, must not rewind
	if got := s.Versions.Get(1, 1); got != 5 {
		t.Fatalf("version = %d, want 5", got)
	}
	if s.RowIter[1] != 5 {
		t.Fatalf("row iter = %d, want 5", s.RowIter[1])
	}
	if len(log) != 1 || log[0] != [3]int64{1, 1, 5} {
		t.Fatalf("hook log = %v, want only the fresh merge", log)
	}
	if got := s.ChurnSnapshot().DuplicatesDropped; got != 1 {
		t.Fatalf("duplicates dropped = %d, want 1", got)
	}
	// The duplicate's gradients must not have been double-counted: one
	// merge of 2s over 2 attached workers leaves exactly 1 in each copy.
	if got := s.Acc[0].Unit(1)[0]; got != 1 {
		t.Fatalf("acc after duplicate = %v, want 1", got)
	}
}

// TestDetachAttachBacklog walks the churn protocol: detach counts once
// (idempotent), attach re-baselines and counts, and the backlog lists
// exactly the units with accumulated mass.
func TestDetachAttachBacklog(t *testing.T) {
	s, part := testState(t, 3)
	vals := make([]float32, part.Unit(0).Len)
	for i := range vals {
		vals[i] = 1
	}
	// Advance the survivors to iteration 3 on every unit.
	for u := 0; u < part.NumUnits(); u++ {
		uv := make([]float32, part.Unit(u).Len)
		for i := range uv {
			uv[i] = 1
		}
		for it := int64(1); it <= 3; it++ {
			s.Merge(0, u, uv, it)
			s.Merge(1, u, uv, it)
		}
	}
	s.Detach(2)
	s.Detach(2)
	if s.Churn.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1 (idempotent)", s.Churn.Disconnects)
	}
	if !s.CanAdvance(4) {
		t.Fatal("detached worker's stale rows still pin the gate")
	}
	backlog := NewPeer(2, part).holdBacklog(s)
	if len(backlog) != part.NumUnits() {
		t.Fatalf("backlog = %d units, want every unit", len(backlog))
	}
	for i, p := range backlog {
		if p.Row != i {
			t.Fatalf("backlog[%d] is unit %d, want ascending unit order", i, p.Row)
		}
		if got := s.Acc[2].MeanAbs(p.Row); got != 0 {
			t.Fatalf("unit %d still holds mean-abs %g after the resync took it", p.Row, got)
		}
	}
	base := s.Attach(2)
	if base != 3 {
		t.Fatalf("baseline = %d, want the surviving minimum 3", base)
	}
	if s.Churn.Reconnects != 1 {
		t.Fatalf("reconnects = %d", s.Churn.Reconnects)
	}
}

// TestMergeWithoutProbeDoesNotAllocate is the tentpole's overhead guard:
// with observability disabled (nil Probe — the default), the instrumented
// Merge/CanAdvance/ObservePush hot path must not allocate. Each merge
// advances the version (a repeat would short-circuit into the duplicate
// guard and skip the hot path); the version-count map churns one key per
// merge without growing, so any allocation the guard sees would come from
// the instrumentation itself.
//
// The observer chain is held to the same guard: handing a transition to a
// registered observer builds a value on the stack, nothing more.
func TestMergeWithoutProbeDoesNotAllocate(t *testing.T) {
	for _, observers := range []int{0, 1} {
		s, part := testState(t, 3)
		var seen int
		for i := 0; i < observers; i++ {
			s.Observe(func(tr Transition) { seen += len(tr.Vals) })
		}
		vals := make([]float32, part.Unit(0).Len)
		s.Merge(0, 0, vals, 1) // warm up version state
		it := int64(1)
		allocs := testing.AllocsPerRun(200, func() {
			it++
			s.Merge(0, 0, vals, it)
			s.CanAdvance(1)
			s.ObservePush(0, 1, 0.5, 0.5, true)
		})
		if allocs != 0 {
			t.Fatalf("%d observers: nil-probe hot path allocated %.1f times per run, want 0", observers, allocs)
		}
		if (seen > 0) != (observers > 0) {
			t.Fatalf("%d observers saw %d values", observers, seen)
		}
	}
}

// TestMergeCombinedDoesNotAllocate: a combined row's second live stamp is
// observed as a merge of a zero row, and that row is the State's own, not one
// allocated per merge.
func TestMergeCombinedDoesNotAllocate(t *testing.T) {
	s, part := testState(t, 3)
	var zeros, rows int
	s.Observe(func(tr Transition) {
		if tr.Kind == KindMerge && tr.Aux == 0 {
			zeros++
			if len(tr.Vals) != part.Unit(0).Len || slices.ContainsFunc(tr.Vals, func(v float32) bool { return v != 0 }) {
				t.Errorf("second stamp observed with %v, want %d zeros", tr.Vals, part.Unit(0).Len)
			}
		}
		rows++
	})
	vals := make([]float32, part.Unit(0).Len)
	for i := range vals {
		vals[i] = 1
	}
	stamps := []Stamp{{Worker: 0}, {Worker: 1}}
	allocs := testing.AllocsPerRun(200, func() {
		stamps[0].Iter++
		stamps[1].Iter++
		s.MergeCombined(0, vals, stamps)
	})
	if allocs != 0 {
		t.Fatalf("MergeCombined with two live stamps and an observer allocated %.1f times per run, want 0", allocs)
	}
	if zeros == 0 || rows != 2*zeros {
		t.Fatalf("observed %d merges, %d of them zero rows; want every second stamp a zero row", rows, zeros)
	}
}

// BenchmarkMergeFanout times a whole-model push into the server state —
// every row added into all W per-worker copies — per row, for the fleet
// experiment's 6-8-4 model at W = 64 and 256 and CRUDA's 32-64-64-100 at
// W = 4.
func BenchmarkMergeFanout(b *testing.B) {
	for _, c := range []struct {
		name             string
		in, out, workers int
		hidden           []int
	}{
		{"fleet/W64", 6, 4, 64, []int{8}},
		{"fleet/W256", 6, 4, 256, []int{8}},
		{"cruda/W4", 32, 100, 4, []int{64, 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			part := rowsync.NewPartition(nn.NewClassifierMLP(c.in, c.hidden, c.out, r).Params(), rowsync.Rows)
			pol, err := New("ssp", Params{Workers: c.workers, Threshold: 4, NumUnits: part.NumUnits()})
			if err != nil {
				b.Fatal(err)
			}
			s := NewStateSharded(pol, part, c.workers, 1.0, 1)
			units, vals := make([]int, part.NumUnits()), make([][]float32, part.NumUnits())
			for u := range units {
				units[u], vals[u] = u, make([]float32, part.Unit(u).Len)
				for i := range vals[u] {
					vals[u][i] = float32(r.Norm())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MergeBatch(0, units, vals, int64(i+1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(units)), "ns/row")
		})
	}
}

// TestObserversRunInRegistrationOrder: every transition reaches every
// observer, first-registered first — what lets the durable store (Recover
// registers before it hands the state out) log a transition before any
// later reader acts on it.
func TestObserversRunInRegistrationOrder(t *testing.T) {
	s, part := testState(t, 3)
	var calls []string
	for _, name := range []string{"first", "second"} {
		s.Observe(func(tr Transition) { calls = append(calls, fmt.Sprintf("%s:%d", name, tr.Kind)) })
	}
	vals := make([]float32, part.Unit(0).Len)
	d := NewPeer(1, part)
	s.Merge(0, 0, vals, 1)
	s.Merge(0, 0, vals, 1) // duplicate: applies nothing, emits nothing
	d.hold(s, []int{0})
	d.Settle(s, nil)
	s.Detach(2)
	s.Detach(2) // idempotent: applies nothing, emits nothing
	s.Attach(2)
	s.ObservePush(0, 1, 0.5, 0.5, true)
	s.ObserveLoss(1, 2, 3)
	var want []string
	for _, k := range []Kind{KindMerge, KindDrain, KindRestore, KindDetach, KindAttach, KindObserve, KindLoss} {
		want = append(want, fmt.Sprintf("first:%d", k), fmt.Sprintf("second:%d", k))
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("observer calls = %v\nwant %v", calls, want)
	}
}

// TestGateTakesNoStateLock asks the gate with the whole state quiesced:
// the bound is fixed per run and the minimum is folded from atomics, so
// CanAdvance and Frontier must answer under WithAllLocked — the socket
// server asks them under its own lock, above State.mu in the lock order.
func TestGateTakesNoStateLock(t *testing.T) {
	s, _ := testState(t, 3)
	answered := make(chan [2]int64, 1)
	go s.WithAllLocked(func() {
		var ok int64
		if s.CanAdvance(3) {
			ok = 1
		}
		answered <- [2]int64{ok, s.Frontier()}
	})
	select {
	case got := <-answered:
		if got != [2]int64{1, 4} {
			t.Fatalf("(CanAdvance(3), Frontier()) = %v, want [1 4]: SSP-4 at minimum 0", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the gate blocked on a lock WithAllLocked holds")
	}
}

// TestStateProbeObservesMergeAndGate wires a registry-backed probe into
// the state and checks the merge, gate and budget metrics move.
func TestStateProbeObservesMergeAndGate(t *testing.T) {
	s, part := testState(t, 3)
	reg := obs.NewRegistry()
	s.Probe = obs.NewProbe(nil, reg, nil)
	vals := make([]float32, part.Unit(0).Len)
	s.Merge(0, 0, vals, 1)
	s.Merge(1, 1, vals, 3)
	s.CanAdvance(10) // way past the minimum: blocked under SSP-4
	s.ObservePush(0, 1, 0.4, 0.4, true)

	snap := reg.Snapshot()
	if snap.Counters["rows_merged"] != 2 {
		t.Fatalf("rows_merged = %d, want 2", snap.Counters["rows_merged"])
	}
	if snap.Histograms["staleness"].Count != 2 {
		t.Fatalf("staleness observations = %d, want 2", snap.Histograms["staleness"].Count)
	}
	if snap.Counters["gate_checks"] != 1 || snap.Counters["gate_blocked"] != 1 {
		t.Fatalf("gate counters = %d checks / %d blocked, want 1/1",
			snap.Counters["gate_checks"], snap.Counters["gate_blocked"])
	}
	if snap.Floats["mta_used_seconds"] != 0.4 {
		t.Fatalf("mta_used_seconds = %g, want 0.4", snap.Floats["mta_used_seconds"])
	}
}

func BenchmarkMergeNilProbe(b *testing.B) {
	proto := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	pol, err := New("ssp", Params{Workers: 3, Threshold: 4, NumUnits: part.NumUnits()})
	if err != nil {
		b.Fatal(err)
	}
	s := NewStateSharded(pol, part, 3, 1.0, 1)
	vals := make([]float32, part.Unit(0).Len)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Merge(0, 0, vals, int64(i+1))
	}
}
