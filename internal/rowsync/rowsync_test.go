package rowsync

import (
	"math"
	"testing"
	"testing/quick"

	"rog/internal/nn"
	"rog/internal/tensor"
)

func testModel() []*tensor.Matrix {
	r := tensor.NewRNG(1)
	m := nn.NewClassifierMLP(4, []int{6}, 3, r)
	return m.Params()
}

func TestPartitionRows(t *testing.T) {
	params := testModel() // W(4x6), B(1x6), W(6x3), B(1x3)
	p := NewPartition(params, Rows)
	if p.NumUnits() != 4+1+6+1 {
		t.Fatalf("NumUnits=%d", p.NumUnits())
	}
	// First unit is row 0 of W0: width 6.
	if u := p.Unit(0); u.Param != 0 || u.Offset != 0 || u.Len != 6 {
		t.Fatalf("unit0=%+v", u)
	}
	// Unit 4 is bias of layer 0.
	if u := p.Unit(4); u.Param != 1 || u.Len != 6 {
		t.Fatalf("unit4=%+v", u)
	}
}

func TestPartitionLayersAndElements(t *testing.T) {
	params := testModel()
	pl := NewPartition(params, Layers)
	if pl.NumUnits() != 4 {
		t.Fatalf("layer units=%d", pl.NumUnits())
	}
	if pl.Unit(0).Len != 24 {
		t.Fatalf("layer unit len=%d", pl.Unit(0).Len)
	}
	pe := NewPartition(params, Elements)
	want := 24 + 6 + 18 + 3
	if pe.NumUnits() != want {
		t.Fatalf("element units=%d want %d", pe.NumUnits(), want)
	}
	for u := 0; u < pe.NumUnits(); u++ {
		if pe.Unit(u).Len != 1 {
			t.Fatal("element unit wider than 1")
		}
	}
}

func TestPartitionCoversModelExactlyOnce(t *testing.T) {
	params := testModel()
	for _, g := range []Granularity{Rows, Layers, Elements} {
		p := NewPartition(params, g)
		covered := make(map[[2]int]int)
		total := 0
		for u := 0; u < p.NumUnits(); u++ {
			un := p.Unit(u)
			for i := 0; i < un.Len; i++ {
				covered[[2]int{un.Param, un.Offset + i}]++
				total++
			}
		}
		wantTotal := 0
		for _, m := range params {
			wantTotal += len(m.Data)
		}
		if total != wantTotal {
			t.Fatalf("%v: covered %d of %d scalars", g, total, wantTotal)
		}
		for k, c := range covered {
			if c != 1 {
				t.Fatalf("%v: scalar %v covered %d times", g, k, c)
			}
		}
	}
}

func TestSliceIsView(t *testing.T) {
	params := testModel()
	p := NewPartition(params, Rows)
	s := p.Slice(params, 0)
	s[0] = 42
	if params[0].Data[0] != 42 {
		t.Fatal("Slice is not a view")
	}
}

func TestWireSizeOrdering(t *testing.T) {
	params := testModel()
	rows := NewPartition(params, Rows)
	layers := NewPartition(params, Layers)
	elems := NewPartition(params, Elements)
	// Finer granularity → more index overhead (Sec. III-A).
	if !(elems.IndexOverhead() > rows.IndexOverhead() && rows.IndexOverhead() > layers.IndexOverhead()) {
		t.Fatalf("index overhead ordering: e=%d r=%d l=%d",
			elems.IndexOverhead(), rows.IndexOverhead(), layers.IndexOverhead())
	}
	if elems.TotalWireSize() <= rows.TotalWireSize() {
		t.Fatal("element granularity should cost more on the wire")
	}
	// Element-granularity total volume should be several times the raw
	// payload — the paper's "transmission volume doubled" argument.
	rawBits := 0
	for u := 0; u < elems.NumUnits(); u++ {
		rawBits += (elems.Unit(u).Len + 7) / 8
	}
	if elems.TotalWireSize() < 2*rawBits {
		t.Fatal("element overhead unexpectedly small")
	}
}

func TestGradStoreAccumulateAndZero(t *testing.T) {
	params := testModel()
	p := NewPartition(params, Rows)
	gs := NewGradStore(p)

	grads := make([]*tensor.Matrix, len(params))
	for i, m := range params {
		g := tensor.New(m.Rows, m.Cols)
		g.Fill(1)
		grads[i] = g
	}
	gs.Accumulate(grads)
	gs.Accumulate(grads)
	if gs.MeanAbs(0) != 2 {
		t.Fatalf("MeanAbs=%v want 2", gs.MeanAbs(0))
	}
	gs.ZeroUnit(0)
	if gs.MeanAbs(0) != 0 {
		t.Fatal("ZeroUnit failed")
	}
	if gs.MeanAbs(1) != 2 {
		t.Fatal("ZeroUnit cleared wrong unit")
	}
}

// refMeanAbs is the branchy MeanAbs the math.Abs loop replaced, verbatim but
// for the receiver.
func refMeanAbs(g *GradStore, u int) float64 {
	d := g.data[u]
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, v := range d {
		if v < 0 {
			s -= float64(v)
		} else {
			s += float64(v)
		}
	}
	return s / float64(len(d))
}

// TestMeanAbsMatchesReference holds MeanAbs to the branchy reference bit for
// bit over the codec reference's row lengths and input kinds (compress's
// TestCodecMatchesReference): normal, one-signed, ±0, subnormal, ±Inf, NaN.
// Only a NaN result may differ, and only in the NaN's sign bit.
func TestMeanAbsMatchesReference(t *testing.T) {
	lens := []int{0, 1, 7, 8, 9, 63, 64, 65, 257, 1000}
	params := make([]*tensor.Matrix, len(lens))
	for i, n := range lens {
		params[i] = tensor.New(1, n)
	}
	gs := NewGradStore(NewPartition(params, Layers))
	r := tensor.NewRNG(3)
	kinds := []func(v float64) float64{
		func(v float64) float64 { return v },
		math.Abs,
		func(v float64) float64 { return -math.Abs(v) },
		func(v float64) float64 { return math.Copysign(0, v) },
		func(v float64) float64 { return math.Copysign(math.SmallestNonzeroFloat32*float64(1+r.Intn(1<<20)), v) },
		func(v float64) float64 { return [5]float64{v, v, v, v, math.Inf(int(math.Copysign(1, v)))}[r.Intn(5)] },
		func(v float64) float64 { return [5]float64{v, v, v, v, math.NaN()}[r.Intn(5)] },
	}
	for k, kind := range kinds {
		for u, n := range lens {
			for i := range gs.Unit(u) {
				gs.Unit(u)[i] = float32(kind(r.Norm()))
			}
			got, want := gs.MeanAbs(u), refMeanAbs(gs, u)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("kind %d, %d values: MeanAbs = %v, reference %v", k, n, got, want)
			}
		}
	}
}

func TestGradStoreAddUnit(t *testing.T) {
	params := testModel()
	p := NewPartition(params, Rows)
	gs := NewGradStore(p)
	vals := make([]float32, p.Unit(0).Len)
	for i := range vals {
		vals[i] = 2
	}
	gs.AddUnit(0, vals, 0.5)
	if gs.Unit(0)[0] != 1 {
		t.Fatalf("AddUnit got %v", gs.Unit(0)[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch should panic")
		}
	}()
	gs.AddUnit(0, []float32{1}, 1)
}

func TestVersionStoreMinTracking(t *testing.T) {
	vs := NewVersionStore(2, 3)
	if vs.Min() != 0 {
		t.Fatal("initial min should be 0")
	}
	// Advance all of worker 0 and two units of worker 1.
	for u := 0; u < 3; u++ {
		vs.Update(0, u, 5)
	}
	vs.Update(1, 0, 4)
	vs.Update(1, 1, 2)
	if vs.Min() != 0 { // worker1 unit2 still at 0
		t.Fatalf("min=%d", vs.Min())
	}
	vs.Update(1, 2, 1)
	if vs.Min() != 1 {
		t.Fatalf("min=%d want 1", vs.Min())
	}
	if vs.MaxAhead() != 4 {
		t.Fatalf("MaxAhead=%d", vs.MaxAhead())
	}
}

func TestVersionStoreMonotonicPanics(t *testing.T) {
	vs := NewVersionStore(1, 1)
	vs.Update(0, 0, 3)
	vs.Update(0, 0, 3) // same value is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on decreasing version")
		}
	}()
	vs.Update(0, 0, 2)
}

// Property: cached Min always equals a brute-force scan, under random
// monotone updates.
func TestVersionStoreMinMatchesBruteForce(t *testing.T) {
	f := func(ops []uint16) bool {
		vs := NewVersionStore(3, 4)
		for _, op := range ops {
			w := int(op) % 3
			u := int(op/3) % 4
			inc := int64(op/12)%5 + 1
			vs.Update(w, u, vs.Get(w, u)+inc)
		}
		var brute int64 = 1 << 62
		for w := 0; w < 3; w++ {
			for u := 0; u < 4; u++ {
				if v := vs.Get(w, u); v < brute {
					brute = v
				}
			}
		}
		return vs.Min() == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionStoreDetachAdvancesMin(t *testing.T) {
	vs := NewVersionStore(3, 2)
	for u := 0; u < 2; u++ {
		vs.Update(0, u, 6)
		vs.Update(1, u, 4)
	}
	// Worker 2 never pushed: it pins the minimum at 0.
	if vs.Min() != 0 {
		t.Fatalf("min=%d", vs.Min())
	}
	vs.Detach(2)
	if vs.Min() != 4 {
		t.Fatalf("min after detach=%d want 4", vs.Min())
	}
	if vs.ActiveWorkers() != 2 || vs.IsActive(2) {
		t.Fatal("membership bookkeeping wrong")
	}
	// MaxAhead now only measures the survivors' spread.
	if vs.MaxAhead() != 2 {
		t.Fatalf("MaxAhead=%d want 2", vs.MaxAhead())
	}
	// Detach is idempotent.
	vs.Detach(2)
	if vs.Min() != 4 || vs.ActiveWorkers() != 2 {
		t.Fatal("double detach changed state")
	}
}

func TestVersionStoreDetachedUpdateIgnoredByMin(t *testing.T) {
	vs := NewVersionStore(2, 1)
	vs.Update(0, 0, 3)
	vs.Detach(1)
	if vs.Min() != 3 {
		t.Fatalf("min=%d", vs.Min())
	}
	// A late in-flight push from the detached worker lands but cannot move
	// the active minimum.
	vs.Update(1, 0, 1)
	if vs.Min() != 3 || vs.Get(1, 0) != 1 {
		t.Fatalf("detached update leaked: min=%d v=%d", vs.Min(), vs.Get(1, 0))
	}
}

func TestVersionStoreAttachRebaselines(t *testing.T) {
	vs := NewVersionStore(3, 2)
	for u := 0; u < 2; u++ {
		vs.Update(0, u, 8)
		vs.Update(1, u, 8)
		vs.Update(2, u, 7)
	}
	vs.Detach(2)
	vs.Update(0, 0, 10)
	if vs.Min() != 8 {
		t.Fatalf("min=%d", vs.Min())
	}
	base := vs.Attach(2)
	if base != 8 {
		t.Fatalf("baseline=%d want 8", base)
	}
	// Rejoined rows were lifted to the baseline: Min is unchanged and the
	// rejoin did not inflate the divergence.
	if vs.Min() != 8 {
		t.Fatalf("min after attach=%d", vs.Min())
	}
	if vs.Get(2, 0) != 8 || vs.Get(2, 1) != 8 {
		t.Fatalf("rows not rebaselined: %d %d", vs.Get(2, 0), vs.Get(2, 1))
	}
	if vs.MaxAhead() != 2 {
		t.Fatalf("MaxAhead=%d want 2", vs.MaxAhead())
	}
}

// Property: Min never decreases across any interleaving of monotone
// updates, detaches and attaches, and always equals a brute-force scan of
// the active workers — churn cannot corrupt the cache RSP waits on.
func TestVersionStoreChurnMinMatchesBruteForce(t *testing.T) {
	const workers, units = 3, 4
	f := func(ops []uint16) bool {
		vs := NewVersionStore(workers, units)
		prevMin := vs.Min()
		for _, op := range ops {
			w := int(op) % workers
			switch (op / 7) % 5 {
			case 0:
				vs.Detach(w)
			case 1:
				vs.Attach(w)
			default:
				u := int(op/3) % units
				inc := int64(op/12)%5 + 1
				vs.Update(w, u, vs.Get(w, u)+inc)
			}
			if vs.ActiveWorkers() == 0 {
				continue // frozen minimum; brute force has nothing to scan
			}
			var brute int64 = 1 << 62
			for r := 0; r < workers; r++ {
				if !vs.IsActive(r) {
					continue
				}
				for u := 0; u < units; u++ {
					if v := vs.Get(r, u); v < brute {
						brute = v
					}
				}
			}
			if vs.Min() != brute {
				return false
			}
			if vs.Min() < prevMin {
				return false
			}
			prevMin = vs.Min()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: under the RSP gate, a crash/rejoin cycle never lifts MaxAhead
// past the threshold — Attach's re-baselining preserves the bound Thm. 1
// rests on.
func TestRSPBoundHoldsUnderChurn(t *testing.T) {
	const threshold = 4
	const workers, units = 3, 2
	f := func(ops []uint16) bool {
		vs := NewVersionStore(workers, units)
		next := [workers]int64{1, 1, 1}
		for _, op := range ops {
			w := int(op) % workers
			switch (op / 5) % 6 {
			case 0:
				vs.Detach(w)
				continue
			case 1:
				if !vs.IsActive(w) {
					base := vs.Attach(w)
					// The rejoined worker resumes at the team's pace.
					if next[w] <= base {
						next[w] = base + 1
					}
				}
				continue
			}
			if !vs.IsActive(w) {
				continue // crashed workers do not iterate
			}
			u := int(op/3) % units
			n := next[w]
			if n-vs.Min() >= threshold {
				continue // the RSP gate stalls this worker's iteration
			}
			if n > vs.Get(w, u) {
				vs.Update(w, u, n)
			}
			next[w]++
			if vs.MaxAhead() > threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RSP invariant — a worker only advances to iteration n when
// n − min(V) < threshold (the pull gate of Algo. 2), so the divergence
// MaxAhead never exceeds the threshold. This is the bound the convergence
// proof rests on.
func TestRSPBoundInvariant(t *testing.T) {
	const threshold = 4
	f := func(ops []uint16) bool {
		vs := NewVersionStore(3, 4)
		next := [3]int64{1, 1, 1}
		for _, op := range ops {
			w := int(op) % 3
			u := int(op/3) % 4
			n := next[w]
			if n-vs.Min() >= threshold {
				continue // the RSP gate stalls this worker's iteration
			}
			if n > vs.Get(w, u) {
				vs.Update(w, u, n)
			}
			next[w]++
			if vs.MaxAhead() > threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
