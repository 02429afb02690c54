package livenet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rog/internal/durable"
	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// TestServerCrashRecoveryWorkersRideThrough is the livenet chaos test: a
// 3-worker team trains resiliently while the parameter server is killed
// mid-run and a fresh server process recovers over the same checkpoint
// store. The workers — riding the ordinary reconnect backoff — must resync
// against the new incarnation (observing its bumped recovery epoch), finish
// every iteration, and never breach the staleness bound.
func TestServerCrashRecoveryWorkersRideThrough(t *testing.T) {
	const workers, threshold, iters = 3, 4, 25
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(41))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	fs := durable.NewMemFS()
	openStore := func() *durable.Store {
		t.Helper()
		st, err := durable.Open(fs, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st1 := openStore()
	srv1, err := NewServer(part, ServerConfig{Workers: workers, Threshold: threshold, Durable: st1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if srv1.Epoch() != 0 {
		t.Fatalf("fresh server at epoch %d", srv1.Epoch())
	}

	// dial connects to the current server incarnation and refuses while
	// there is none (the old one torn down, the new one not yet up). pipes
	// holds the current incarnation's connections.
	var mu sync.Mutex
	cur := srv1
	var pipes []net.Conn
	var handlerWG sync.WaitGroup
	dial := func(id int) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			if cur == nil {
				return nil, errors.New("no server is listening")
			}
			srv := cur
			c, s := net.Pipe()
			pipes = append(pipes, c)
			handlerWG.Add(1)
			go func() {
				defer handlerWG.Done()
				// Handler errors are expected here: the crash kills
				// connections mid-frame by design.
				_ = srv.HandleConn(id, s)
			}()
			return c, nil
		}
	}

	data := newClusterData(43)
	var models []*nn.Sequential
	var ws []*Worker
	for i := 0; i < workers; i++ {
		m := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models = append(models, m)
		conn, derr := dial(i)()
		if derr != nil {
			t.Fatal(derr)
		}
		ws = append(ws, NewWorker(m, part, conn, WorkerConfig{
			ID: i, Workers: workers, Threshold: threshold, LR: 0.1, Momentum: 0.9,
		}))
	}

	// done[i] counts worker i's completed compute passes (updated inside the
	// compute callback, so the main goroutine can poll progress race-free).
	var progress [workers]atomic.Int64
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id)*17 + 5)
			b := NewBackoff(time.Millisecond, 20*time.Millisecond, uint64(id)+1)
			err := w.RunResilient(iters, func() {
				// Pace the run so the crash lands mid-training, not after it.
				time.Sleep(500 * time.Microsecond)
				x, y := data.batch(r, 16)
				_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
				models[id].Backward(g)
				progress[id].Add(1)
			}, dial(id), b, 100)
			if err != nil {
				t.Errorf("worker %d: %v", id, err)
			}
		}(i, w)
	}

	// Let the team make real progress, cut a mid-run checkpoint, then kill
	// the server: stop listening, sever every connection, let the first
	// incarnation's handlers end, crash the store (unsynced WAL bytes die
	// with the process) and stand a new incarnation up over the same
	// filesystem. The first incarnation does nothing after the crash, so
	// the log the second one recovers holds all it did.
	deadline := time.Now().Add(20 * time.Second)
	progressed := func() bool {
		for i := range progress {
			if progress[i].Load() < 3 {
				return false
			}
		}
		return true
	}
	for !progressed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !progressed() {
		t.Fatal("team made no progress before the crash")
	}
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("mid-run checkpoint: %v", err)
	}

	mu.Lock()
	cur = nil
	for _, c := range pipes {
		c.Close()
	}
	pipes = nil
	mu.Unlock()
	srv1.Close()
	handlerWG.Wait()
	st1.Crash()
	st2 := openStore()
	if !st2.HasState() {
		t.Fatal("crashed store lost its durable state")
	}
	srv2, err := NewServer(part, ServerConfig{Workers: workers, Threshold: threshold, Durable: st2})
	if err != nil {
		t.Fatalf("recovering NewServer: %v", err)
	}
	mu.Lock()
	cur = srv2
	mu.Unlock()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: workers did not finish across the server crash")
	}

	if got := srv2.Epoch(); got != 1 {
		t.Errorf("recovered server epoch %d, want 1", got)
	}
	for i, w := range ws {
		if got := w.Iterations(); got < iters {
			t.Errorf("worker %d completed %d/%d iterations", i, got, iters)
		}
		if got := w.Epoch(); got != 1 {
			t.Errorf("worker %d saw epoch %d in its resync, want 1", i, got)
		}
	}
	if got := srv2.MaxStalenessObserved(); got > threshold {
		t.Errorf("staleness %d exceeded threshold %d across the server crash", got, threshold)
	}
	if churn := srv2.Churn(); churn.Reconnects < workers {
		t.Errorf("recovered server saw %d reconnects, want >= %d", churn.Reconnects, workers)
	}

	for _, w := range ws {
		w.conn.Close()
	}
	srv2.Close()
	handlerWG.Wait()
}

// TestNewServerRecoversState pins the recovery path without concurrency:
// merge a few rows, checkpoint, crash, and reopen — the new incarnation
// must carry the journaled versions at a bumped epoch with every worker
// detached (awaiting its resync).
func TestNewServerRecoversState(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(47))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	fs := durable.NewMemFS()
	st1, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 4, Durable: st1})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, part.Unit(0).Len)
	for i := range vals {
		vals[i] = float32(i%3) - 1
	}
	srv1.mu.Lock()
	srv1.state.Merge(0, 0, vals, 1)
	srv1.state.Merge(1, 0, vals, 1)
	srv1.state.Merge(0, 0, vals, 2)
	srv1.mu.Unlock()
	st1.Crash() // no checkpoint since Begin: recovery must replay the WAL

	st2, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 4, Durable: st2})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Epoch() != 1 {
		t.Fatalf("epoch %d after recovery, want 1", srv2.Epoch())
	}
	if got := srv2.state.Versions.Get(0, 0); got != 2 {
		t.Fatalf("recovered version[0][0] = %d, want 2", got)
	}
	if got := srv2.state.Versions.Get(1, 0); got != 1 {
		t.Fatalf("recovered version[1][0] = %d, want 1", got)
	}
	if srv2.ActiveWorkers() != 0 {
		t.Fatalf("%d workers active before any reconnect", srv2.ActiveWorkers())
	}
	// A second epoch: crash again without new state, recover again.
	st2.Crash()
	st3, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	srv3, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 4, Durable: st3})
	if err != nil {
		t.Fatal(err)
	}
	if srv3.Epoch() != 2 {
		t.Fatalf("epoch %d after second recovery, want 2", srv3.Epoch())
	}
}

// gateRig is a 2-worker SSP team at threshold 2 whose servers report their
// stall and detach events to the test, so it can wait on the protocol's
// state instead of sleeping.
type gateRig struct {
	t        *testing.T
	part     *rowsync.Partition
	events   chan obs.Event
	handlers sync.WaitGroup
	ws       [2]*Worker
}

func newGateRig(t *testing.T) *gateRig {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(53))
	return &gateRig{t: t, part: rowsync.NewPartition(proto.Params(), rowsync.Rows), events: make(chan obs.Event, 256)}
}

// server starts a server over store (nil: volatile) tracing into the rig.
func (r *gateRig) server(store *durable.Store) *Server {
	r.t.Helper()
	srv, err := NewServer(r.part, ServerConfig{Workers: 2, Policy: r.policy(), Durable: store,
		Trace: tracerFunc(func(e obs.Event) {
			if e.Kind == obs.KindStallBegin || e.Kind == obs.KindDetach {
				r.events <- e
			}
		})})
	if err != nil {
		r.t.Fatalf("NewServer: %v", err)
	}
	return srv
}

func (r *gateRig) policy() engine.Policy {
	pol, err := engine.New("ssp", engine.Params{Workers: 2, Threshold: 2, NumUnits: r.part.NumUnits()})
	if err != nil {
		r.t.Fatal(err)
	}
	return pol
}

// connect serves a fresh pipe for worker id on srv and returns the
// worker's end.
func (r *gateRig) connect(srv *Server, id int) net.Conn {
	c, s := net.Pipe()
	r.t.Cleanup(func() { c.Close() })
	r.handlers.Add(1)
	go func() {
		defer r.handlers.Done()
		_ = srv.HandleConn(id, s) // ends with the connection or the server
	}()
	return c
}

// await returns once srv reported an event of kind for worker.
func (r *gateRig) await(kind obs.Kind, worker int) obs.Event {
	r.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case e := <-r.events:
			if e.Kind == kind && e.Worker == worker {
				return e
			}
		case <-timeout:
			r.t.Fatalf("no %v event for worker %d", kind, worker)
		}
	}
}

// iterate runs worker id's next iteration in the background.
func (r *gateRig) iterate(id int) chan error {
	done := make(chan error, 1)
	go func() { done <- r.ws[id].RunIteration(func() {}) }()
	return done
}

// parkWorker0 connects both workers to srv and runs worker 0 to its gate at
// iteration 2, where it parks: worker 1 stays silent at version 0. It
// returns worker 0's pending iteration.
func (r *gateRig) parkWorker0(srv *Server) chan error {
	r.t.Helper()
	for id := range r.ws {
		model := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(53))
		r.ws[id] = NewWorker(model, r.part, r.connect(srv, id), WorkerConfig{ID: id, Workers: 2, Policy: r.policy()})
	}
	if err := <-r.iterate(0); err != nil {
		r.t.Fatalf("worker 0 iteration 1: %v", err)
	}
	pending := r.iterate(0)
	if e := r.await(obs.KindStallBegin, 0); e.Iter != 2 {
		r.t.Fatalf("worker 0 parked at gate %d, want 2", e.Iter)
	}
	return pending
}

// rejoin reconnects worker id to srv over a fresh pipe.
func (r *gateRig) rejoin(srv *Server, id int) {
	r.t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.ws[id].Rejoin(r.connect(srv, id)) }()
	select {
	case err := <-done:
		if err != nil {
			r.t.Fatalf("worker %d rejoin: %v", id, err)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatalf("worker %d rejoin hangs", id)
	}
}

// TestRejoinedPushWaitsForTheBound: a worker whose gate never admitted its
// last push rejoins a recovered server at baseline 0 and pushes iteration 3
// — two past a teammate still at version 0, at threshold 2. That push must
// wait for the teammate (engine.Peer.Admit), not merge at lead 3.
func TestRejoinedPushWaitsForTheBound(t *testing.T) {
	r := newGateRig(t)
	fs := durable.NewMemFS()
	st1, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := r.server(st1)
	pending := r.parkWorker0(srv1)

	// Worker 0 detaches first, worker 1 last: the last detach freezes the
	// minimum srv2 recovers, worker 1's 0.
	srv1.Close()
	r.await(obs.KindDetach, 0)
	r.ws[0].conn.Close()
	if err := <-pending; err == nil {
		t.Fatal("worker 0's iteration 2 completed on a closed server")
	}
	r.ws[1].conn.Close()
	r.await(obs.KindDetach, 1)
	r.handlers.Wait()
	st1.Crash()

	st2, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := r.server(st2)
	r.rejoin(srv2, 1)
	r.rejoin(srv2, 0)
	if got := r.ws[0].Iterations(); got != 2 {
		t.Fatalf("worker 0 resumed at iteration %d, want 2", got)
	}
	pending = r.iterate(0)
	r.await(obs.KindStallBegin, 0)
	for k := 0; k < 2; k++ {
		if err := <-r.iterate(1); err != nil {
			t.Fatalf("worker 1 iteration %d: %v", k+1, err)
		}
	}
	if err := <-pending; err != nil {
		t.Fatalf("worker 0 iteration 3: %v", err)
	}
	if got := srv2.MaxStalenessObserved(); got > 2 {
		t.Errorf("a merge stamped a lead of %d over threshold 2", got)
	}
	for _, w := range r.ws {
		w.conn.Close()
	}
	srv2.Close()
	r.handlers.Wait()
}
