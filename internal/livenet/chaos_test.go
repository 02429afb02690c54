package livenet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// TestWorkerCrashSurvivorsComplete kills 1 of 4 workers mid-run by closing
// its connection. The survivors must finish all their iterations without
// deadlock (the RSP wait must not park forever on the ghost's rows), the
// staleness bound must hold throughout, and the server must record the
// detach.
func TestWorkerCrashSurvivorsComplete(t *testing.T) {
	const workers, threshold, iters = 4, 4, 30
	const crashAt = 8 // victim's iteration count at the kill
	srv, ws, models, cleanup := liveCluster(t, workers, threshold, 21)
	defer cleanup()

	data := newClusterData(17)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id)*31 + 7)
			for k := 0; int64(k) < iters; k++ {
				if id == 0 && k == crashAt {
					// Crash: the victim's side of the pipe closes abruptly.
					w.conn.Close()
					return
				}
				err := w.RunIteration(func() {
					x, y := data.batch(r, 16)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				})
				if err != nil {
					if id == 0 {
						return // the victim's in-flight iteration may fail
					}
					t.Errorf("survivor %d iter %d: %v", id, k, err)
					return
				}
			}
		}(i, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: survivors did not finish after worker 0 crashed")
	}

	for i := 1; i < workers; i++ {
		if got := ws[i].Iterations(); got != iters {
			t.Errorf("survivor %d completed %d/%d iterations", i, got, iters)
		}
	}
	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Errorf("staleness %d exceeded threshold %d under churn", got, threshold)
	}
	// The victim's handler detaches asynchronously; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveWorkers() != workers-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.ActiveWorkers() != workers-1 {
		t.Errorf("active workers = %d, want %d", srv.ActiveWorkers(), workers-1)
	}
	if churn := srv.Churn(); churn.Disconnects < 1 {
		t.Errorf("churn stats recorded no disconnect: %v", churn)
	}
}

// TestWorkerRejoinResumesPushing crashes a worker, lets the survivors run
// on, then reconnects the victim: the rejoin must replay the missed rows,
// fast-forward the victim past the baseline, and let it finish the
// remaining iterations pushing normally — all within the staleness bound.
func TestWorkerRejoinResumesPushing(t *testing.T) {
	const workers, threshold = 4, 4
	// After the survivors stop pushing, the rejoined victim can advance at
	// most threshold−1 iterations past their frozen minimum before RSP
	// (correctly) parks it — so it runs exactly that many after the rejoin.
	const survivorIters, victimFirst, victimAfter = 24, 6, threshold - 1
	srv, ws, models, cleanup := liveCluster(t, workers, threshold, 33)
	defer cleanup()

	data := newClusterData(29)
	compute := func(id int, r *tensor.RNG) func() {
		return func() {
			x, y := data.batch(r, 16)
			_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
			models[id].Backward(g)
		}
	}

	var handlerWG sync.WaitGroup
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id) + 61)
			for k := 0; k < survivorIters; k++ {
				if err := w.RunIteration(compute(id, r)); err != nil {
					t.Errorf("survivor %d: %v", id, err)
					return
				}
			}
		}(i, ws[i])
	}

	// Victim: run a few iterations, crash, wait for the survivors to pull
	// ahead, then rejoin over a fresh pipe and finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := ws[0]
		r := tensor.NewRNG(61)
		for k := 0; k < victimFirst; k++ {
			if err := w.RunIteration(compute(0, r)); err != nil {
				t.Errorf("victim pre-crash: %v", err)
				return
			}
		}
		w.conn.Close()
		// Give the server time to notice and the survivors time to advance.
		for srv.ActiveWorkers() == workers {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)

		c, s := net.Pipe()
		handlerWG.Add(1)
		go func() {
			defer handlerWG.Done()
			if err := srv.HandleConn(0, s); err != nil {
				t.Errorf("rejoin handler: %v", err)
			}
		}()
		if err := w.Rejoin(c); err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		if w.Iterations() < victimFirst {
			t.Errorf("rejoin rewound the victim to iteration %d", w.Iterations())
		}
		target := w.Iterations() + victimAfter
		for w.Iterations() < target {
			if err := w.RunIteration(compute(0, r)); err != nil {
				t.Errorf("victim post-rejoin: %v", err)
				return
			}
		}
		w.conn.Close()
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock in crash/rejoin run")
	}
	cleanup()
	handlerWG.Wait()

	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Errorf("staleness %d exceeded threshold %d across rejoin", got, threshold)
	}
	churn := srv.Churn()
	if churn.Disconnects < 1 || churn.Reconnects < 1 {
		t.Errorf("churn stats missed the crash/rejoin cycle: %v", churn)
	}
	if churn.RowsResynced == 0 {
		t.Errorf("rejoin resynced no rows: %v", churn)
	}
}

// TestSilentStallDetaches connects a worker that sends nothing: with an
// IdleTimeout configured, the server must classify the silent stall,
// detach the worker, and return an error from HandleConn.
func TestSilentStallDetaches(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(3))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{
		Workers: 2, Threshold: 4, IdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	c, s := net.Pipe()
	defer c.Close()

	var handlerErr atomic.Value
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.HandleConn(0, s); err != nil {
			handlerErr.Store(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled connection was never detached")
	}
	if handlerErr.Load() == nil {
		t.Fatal("silent stall did not surface as an error")
	}
	if srv.ActiveWorkers() != 1 {
		t.Errorf("active workers = %d after stall, want 1", srv.ActiveWorkers())
	}
	if srv.Churn().Disconnects != 1 {
		t.Errorf("churn = %v, want 1 disconnect", srv.Churn())
	}
}

// TestHandleConnRejectsBadWorker checks the membership guard on worker
// indices.
func TestHandleConnRejectsBadWorker(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(3))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 4})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if err := srv.HandleConn(5, s); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
}

// TestBackoffCapsAndResets exercises the reconnect backoff schedule.
func TestBackoffCapsAndResets(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 1)
	b.Jitter = 0 // deterministic bounds for the assertions
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, ms := range want {
		if got := b.Next(); got != ms*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", i, got, ms*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after reset: delay %v, want 10ms", got)
	}

	// With jitter, delays stay within [d·(1−jitter), d] and two backoffs
	// with the same seed replay identically.
	j1 := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 7)
	j2 := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 7)
	for i := 0; i < 6; i++ {
		d1, d2 := j1.Next(), j2.Next()
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, d1, d2)
		}
		base := 10 * time.Millisecond << i
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		lo := time.Duration(float64(base) * 0.8)
		if d1 < lo || d1 > base {
			t.Fatalf("attempt %d: delay %v outside [%v,%v]", i, d1, lo, base)
		}
	}
}

// TestReconnectSupersedesParkedHandler: worker 0 is parked at gate 2 when its
// connection dies. Its handler waits on the gate, not on the dead connection,
// so the worker is still attached when it reconnects. The new connection
// must supersede the parked handler — which then ends and detaches the worker
// — and rejoin through the ordinary resync, not hang waiting for one.
func TestReconnectSupersedesParkedHandler(t *testing.T) {
	r := newGateRig(t)
	srv := r.server(nil)
	pending := r.parkWorker0(srv)
	r.ws[0].conn.Close()
	if err := <-pending; err == nil {
		t.Fatal("worker 0's iteration 2 completed over a closed connection")
	}
	r.rejoin(srv, 0)
	r.await(obs.KindDetach, 0)
	if got := srv.ActiveWorkers(); got != 2 {
		t.Fatalf("%d workers attached after the rejoin, want 2", got)
	}
	// The rejoined worker trains on: its push 3 waits for worker 1.
	pending = r.iterate(0)
	for k := 0; k < 2; k++ {
		if err := <-r.iterate(1); err != nil {
			t.Fatalf("worker 1 iteration %d: %v", k+1, err)
		}
	}
	if err := <-pending; err != nil {
		t.Fatalf("worker 0 iteration 3: %v", err)
	}
	for _, w := range r.ws {
		w.conn.Close()
	}
	srv.Close()
	r.handlers.Wait()
}
