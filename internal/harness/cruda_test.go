package harness

import (
	"runtime"
	"sync"
	"testing"

	"rog/internal/nn"
)

// TestCRUDAStepAndScorersAllocateNothing: a warm training step allocates
// nothing (the batch is the shard's, the activations the layers', the loss
// gradient the worker's), and a second workload of the same build scores
// through the build's activation buffers instead of allocating its own.
func TestCRUDAStepAndScorersAllocateNothing(t *testing.T) {
	a := NewCRUDA(memoOptions())
	a.ComputeGradients(0)
	if n := testing.AllocsPerRun(20, func() { a.ComputeGradients(0) }); n != 0 {
		t.Errorf("a warm ComputeGradients allocates %v times a step", n)
	}

	a.Evaluate()
	b := NewCRUDA(memoOptions())
	if b.crudaBuild != a.crudaBuild {
		t.Fatal("two workloads of equal options got different builds")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.Evaluate()
	runtime.ReadMemStats(&after)
	// The smallest activation buffer is evalX.Rows × the narrowest layer
	// (2000 × 64 floats, 512 KB); the goroutines and closures are a few
	// hundred bytes. The limit is one float column of the eval batch.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(b.evalX.Rows*4); got >= limit {
		t.Errorf("the second workload's first Evaluate allocated %d bytes, want under %d", got, limit)
	}
}

// TestConcurrentWorkersMatchSerial steps two workers of one workload on two
// goroutines, as the socket runtime does, and holds every parameter and
// gradient to a serial run of a twin workload bit for bit. Under -race it
// also proves that the workers share no scratch.
func TestConcurrentWorkersMatchSerial(t *testing.T) {
	const steps = 6
	step := func(wl *CRUDAWorkload, w int) {
		opt := nn.NewSGD(0.05, 0.9)
		m := wl.Model(w)
		for i := 0; i < steps; i++ {
			m.ZeroGrads()
			wl.ComputeGradients(w)
			opt.Step(m.Params(), m.Grads())
		}
	}
	concurrent, serial := NewCRUDA(memoOptions()), NewCRUDA(memoOptions())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			step(concurrent, w)
		}(w)
	}
	wg.Wait()
	for w := 0; w < 2; w++ {
		step(serial, w)
	}
	for w := 0; w < 2; w++ {
		pc, ps := concurrent.Model(w).Params(), serial.Model(w).Params()
		gc, gs := concurrent.Model(w).Grads(), serial.Model(w).Grads()
		for i := range pc {
			if !pc[i].Equal(ps[i]) || !gc[i].Equal(gs[i]) {
				t.Fatalf("worker %d matrix %d: the concurrent run differs from the serial one", w, i)
			}
		}
	}
}
