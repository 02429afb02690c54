package harness

import (
	"runtime"
	"sync"
	"testing"

	"rog/internal/nn"
)

// reset empties the memo, so that the next request for any key builds.
func (m *memo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys, m.builds = nil, nil
}

// size reports how many builds the memo holds.
func (m *memo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// memoOptions is a CRUDA build small enough to repeat a dozen times.
func memoOptions() CRUDAOptions {
	o := DefaultCRUDAOptions()
	o.Seed = 71
	o.PretrainIters = 12
	return o
}

// train runs n local SGD steps on every replica of wl: it moves the
// parameters, the layers' caches and the shards' sampling streams.
func train(wl *CRUDAWorkload, n int) {
	for w := range wl.models {
		opt := nn.NewSGD(0.05, 0.9)
		for i := 0; i < n; i++ {
			wl.Model(w).ZeroGrads()
			wl.ComputeGradients(w)
			opt.Step(wl.Model(w).Params(), wl.Model(w).Grads())
		}
	}
}

// sameWorkload compares everything a run can observe of two workloads that
// nothing has trained yet; it consumes shard draws from both alike.
func sameWorkload(t *testing.T, what string, a, b *CRUDAWorkload) {
	t.Helper()
	if a.PretrainCleanAcc != b.PretrainCleanAcc || a.PretrainNoisyAcc != b.PretrainNoisyAcc {
		t.Fatalf("%s: pretrain accuracies %v/%v vs %v/%v", what,
			a.PretrainCleanAcc, a.PretrainNoisyAcc, b.PretrainCleanAcc, b.PretrainNoisyAcc)
	}
	if len(a.models) != len(b.models) {
		t.Fatalf("%s: %d vs %d replicas", what, len(a.models), len(b.models))
	}
	for w := range a.models {
		pa, pb := a.Model(w).Params(), b.Model(w).Params()
		for i := range pa {
			if !pa[i].Equal(pb[i]) {
				t.Fatalf("%s: replica %d parameter %d differs", what, w, i)
			}
		}
		for draw := 0; draw < 3; draw++ {
			xa, ya := a.shards[w].Batch(a.batch)
			xb, yb := b.shards[w].Batch(b.batch)
			if !xa.Equal(xb) {
				t.Fatalf("%s: worker %d draw %d differs", what, w, draw)
			}
			for i := range ya {
				if ya[i] != yb[i] {
					t.Fatalf("%s: worker %d draw %d label %d differs", what, w, draw, i)
				}
			}
		}
	}
	if ea, eb := a.Evaluate(), b.Evaluate(); ea != eb {
		t.Fatalf("%s: Evaluate %v vs %v", what, ea, eb)
	}
}

// TestNewCRUDAMemoHitEqualsBuild: a workload handed out on a memo hit, after
// an earlier workload of the same build has been trained, is bit for bit the
// workload an uncached build produces.
func TestNewCRUDAMemoHitEqualsBuild(t *testing.T) {
	crudaBuilds.reset()
	o := memoOptions()
	first := NewCRUDA(o)
	train(first, 5)
	hit := NewCRUDA(o)
	if hit.evalX != first.evalX {
		t.Fatal("second NewCRUDA with equal options did not share the build")
	}
	crudaBuilds.reset()
	built := NewCRUDA(o)
	if built.evalX == first.evalX {
		t.Fatal("NewCRUDA after a reset did not rebuild")
	}
	sameWorkload(t, "memo hit vs uncached build", hit, built)
	// The batch is not part of the build: a different batch shares it.
	o.BatchScale = 4
	if wl := NewCRUDA(o); wl.evalX != built.evalX || wl.batch != 4*built.batch {
		t.Fatalf("batch scale 4: shared build %v, batch %d", wl.evalX == built.evalX, wl.batch)
	}
}

// TestNewCRUDAMemoMissesAndBound: every option the build depends on misses,
// and the memo never holds more than memoBound builds.
func TestNewCRUDAMemoMissesAndBound(t *testing.T) {
	crudaBuilds.reset()
	base := NewCRUDA(memoOptions())
	variants := map[string]func(*CRUDAOptions){
		"Seed":          func(o *CRUDAOptions) { o.Seed++ },
		"Workers":       func(o *CRUDAOptions) { o.Workers = 3 },
		"PretrainIters": func(o *CRUDAOptions) { o.PretrainIters++ },
		"Hidden":        func(o *CRUDAOptions) { o.Hidden = []int{64, 32} },
		"UseConvMLP":    func(o *CRUDAOptions) { o.UseConvMLP = true },
	}
	for name, change := range variants {
		o := memoOptions()
		change(&o)
		if wl := NewCRUDA(o); wl.evalX == base.evalX {
			t.Errorf("differing %s hit the memo", name)
		}
		if n := crudaBuilds.size(); n > memoBound {
			t.Fatalf("memo holds %d builds, bound %d", n, memoBound)
		}
	}
	if len(variants) < memoBound {
		t.Fatal("too few variants to push the base build out")
	}
	if wl := NewCRUDA(memoOptions()); wl.evalX == base.evalX {
		t.Fatal("the oldest build was still there after memoBound newer ones")
	}
}

// TestNewCRUDAConcurrent is meant for -race: callers with equal options wait
// for one build and share it, callers with different options get their own,
// and each trains its own workload meanwhile.
func TestNewCRUDAConcurrent(t *testing.T) {
	crudaBuilds.reset()
	var wg sync.WaitGroup
	wls := make([]*CRUDAWorkload, 6)
	for g := range wls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := memoOptions()
			o.Seed += uint64(g % 2)
			wls[g] = NewCRUDA(o)
			train(wls[g], 2)
			wls[g].Evaluate()
		}(g)
	}
	wg.Wait()
	for g, wl := range wls {
		if wl.evalX != wls[g%2].evalX {
			t.Errorf("caller %d did not share the build of its options", g)
		}
	}
	if wls[0].evalX == wls[1].evalX {
		t.Error("different seeds shared a build")
	}
}

// TestNewCRUDAPanicNotMemoised: a build that panics leaves nothing behind,
// so the next call with the same options reports the same panic rather than
// tripping over a half-made entry.
func TestNewCRUDAPanicNotMemoised(t *testing.T) {
	crudaBuilds.reset()
	o := memoOptions()
	o.Workers = 0 // PartitionPachinko refuses
	panicOf := func() (msg any) {
		defer func() { msg = recover() }()
		NewCRUDA(o)
		return nil
	}
	first := panicOf()
	if first == nil {
		t.Fatal("NewCRUDA with no workers did not panic")
	}
	if second := panicOf(); second != first || crudaBuilds.size() != 0 {
		t.Fatalf("second call: panic %v (first %v), memo holds %d builds", second, first, crudaBuilds.size())
	}
	NewCRUDA(memoOptions()) // and the lock was released
}

// TestEvaluateIndependentOfGOMAXPROCS: the fan-out returns the float64 the
// serial Σ Accuracy(m.Forward(evalX))/n it replaced returns, whatever the
// number of scoring goroutines, and leaves the shared eval batch untouched.
func TestEvaluateIndependentOfGOMAXPROCS(t *testing.T) {
	wl := NewCRUDA(memoOptions())
	train(wl, 4) // the replicas now differ from one another
	evalX := wl.evalX.Clone()
	var want float64
	for _, m := range wl.models {
		want += nn.Accuracy(m.Forward(wl.evalX), wl.evalY)
	}
	want /= float64(len(wl.models))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := wl.Evaluate(); got != want {
			t.Errorf("GOMAXPROCS %d: Evaluate %v, serial reference %v", procs, got, want)
		}
	}
	if !wl.evalX.Equal(evalX) {
		t.Fatal("Evaluate wrote to the shared eval batch")
	}
	// Steady state: the activations exist by now and are reused; what is
	// left is the WaitGroup and a closure per scorer (AllocsPerRun measures
	// at GOMAXPROCS 1, one scorer).
	if allocs := testing.AllocsPerRun(5, func() { wl.Evaluate() }); allocs > 4 {
		t.Errorf("Evaluate allocates %v times a call", allocs)
	}
}
