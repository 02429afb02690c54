package livenet

import (
	"net"
	"sync"
	"testing"
	"time"

	"rog/internal/compress"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// liveCluster spins up a server goroutine per worker connection and returns
// the workers, all over in-process pipes. tune, when given, adjusts the
// server's configuration first.
func liveCluster(t *testing.T, workers, threshold int, seed uint64, tune ...func(*ServerConfig)) (*Server, []*Worker, []*nn.Sequential, func()) {
	t.Helper()
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(seed))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	cfg := ServerConfig{Workers: workers, Threshold: threshold}
	for _, f := range tune {
		f(&cfg)
	}
	srv, err := NewServer(part, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	var models []*nn.Sequential
	var ws []*Worker
	var wg sync.WaitGroup
	var conns []net.Conn
	for i := 0; i < workers; i++ {
		m := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models = append(models, m)
		c, s := net.Pipe()
		conns = append(conns, c, s)
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		ws = append(ws, NewWorker(m, part, c, WorkerConfig{
			ID: i, Threshold: threshold, LR: 0.1, Momentum: 0.9,
		}))
	}
	cleanup := func() {
		for _, c := range conns {
			c.Close()
		}
		srv.Close()
		wg.Wait()
	}
	return srv, ws, models, cleanup
}

// clusterData is a shared synthetic task for live tests.
type clusterData struct {
	centroids [][]float32
}

func newClusterData(seed uint64) *clusterData {
	r := tensor.NewRNG(seed)
	d := &clusterData{}
	for c := 0; c < 4; c++ {
		v := make([]float32, 6)
		for i := range v {
			v[i] = float32(r.Norm() * 2)
		}
		d.centroids = append(d.centroids, v)
	}
	return d
}

func (d *clusterData) batch(r *tensor.RNG, n int) (*tensor.Matrix, []int) {
	x := tensor.New(n, 6)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(4)
		y[i] = c
		for j := 0; j < 6; j++ {
			x.Set(i, j, d.centroids[c][j]+float32(r.Norm()))
		}
	}
	return x, y
}

func TestLiveTrainingConvergesAndBoundsStaleness(t *testing.T) {
	const workers, threshold, iters = 3, 4, 40
	srv, ws, models, cleanup := liveCluster(t, workers, threshold, 5)

	data := newClusterData(9)
	evalX, evalY := data.batch(tensor.NewRNG(123), 200)
	before := nn.Accuracy(models[0].Forward(evalX), evalY)

	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id)*31 + 7)
			for k := 0; k < iters; k++ {
				err := w.RunIteration(func() {
					x, y := data.batch(r, 16)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", id, k, err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	cleanup()

	for i, w := range ws {
		if w.Iterations() != iters {
			t.Fatalf("worker %d completed %d iterations", i, w.Iterations())
		}
	}
	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Fatalf("staleness %d exceeded threshold %d", got, threshold)
	}
	// The live run must actually learn.
	best := before
	for _, m := range models {
		if acc := nn.Accuracy(m.Forward(evalX), evalY); acc > best {
			best = acc
		}
	}
	if best < before+0.15 {
		t.Fatalf("live training did not learn: %.3f -> %.3f", before, best)
	}
}

func TestLiveReplicasStayClose(t *testing.T) {
	// RSP bounds divergence; after a joint run, replicas must be close
	// (not identical — different rows sync at different times).
	const workers, threshold, iters = 3, 4, 25
	_, ws, models, cleanup := liveCluster(t, workers, threshold, 11)
	data := newClusterData(3)

	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id) + 100)
			for k := 0; k < iters; k++ {
				if err := w.RunIteration(func() {
					x, y := data.batch(r, 16)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	cleanup()

	p0 := models[0].Params()
	for wIdx := 1; wIdx < workers; wIdx++ {
		pw := models[wIdx].Params()
		var diff, norm float64
		for i := range p0 {
			for j := range p0[i].Data {
				d := float64(p0[i].Data[j] - pw[i].Data[j])
				diff += d * d
				norm += float64(p0[i].Data[j]) * float64(p0[i].Data[j])
			}
		}
		if diff > norm {
			t.Fatalf("replica %d diverged: relative diff %.3f", wIdx, diff/norm)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	proto := nn.NewClassifierMLP(4, []int{4}, 2, tensor.NewRNG(1))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	for name, cfg := range map[string]ServerConfig{
		"workers":     {Workers: 1, Threshold: 4},
		"threshold":   {Workers: 3, Threshold: 1},
		"idleTimeout": {Workers: 3, Threshold: 4, IdleTimeout: -time.Second},
	} {
		if _, err := NewServer(part, cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 2}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestProtocolRoundtrip(t *testing.T) {
	p := compressPayload(t)
	for _, tc := range []struct {
		name  string
		frame []byte
		kind  byte
	}{
		{"row", rowMsg(nil, 7, p), kindRow},
		{"pushDone", pushDoneMsg(nil, 7, 1.25, 2.5, true), kindPushDone},
		{"pull", pullMsg(nil, p), kindPull},
		{"pullDone", pullDoneMsg(nil, 0.5, 3), kindPullDone},
		{"resyncDone", resyncDoneMsg(nil, 9, 0.25, 4, 2), kindResyncDone},
	} {
		msg, err := parse(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if msg.kind != tc.kind {
			t.Fatalf("%s: kind %q", tc.name, msg.kind)
		}
	}
	if m, err := parse(pushDoneMsg(nil, 7, 1.25, 2.5, true)); err != nil || m.iter != 7 || m.mta != 1.25 ||
		m.elapsed != 2.5 || !m.spec {
		t.Fatalf("pushDone fields: %+v %v", m, err)
	}
	if m, _ := parse(pullDoneMsg(nil, 0.5, 3)); m.budget != 0.5 || m.min != 3 {
		t.Fatalf("pullDone fields: %+v", m)
	}
	if m, _ := parse(resyncDoneMsg(nil, 9, 0.25, 4, 2)); m.iter != 9 || m.budget != 0.25 || m.min != 4 || m.epoch != 2 {
		t.Fatalf("resyncDone fields: %+v", m)
	}
	badSpec := pushDoneMsg(nil, 7, 1.25, 2.5, true)
	badSpec[len(badSpec)-1] = 2
	for _, bad := range [][]byte{{}, {'Z', 1}, {kindRow, 1}, {kindPushDone, 1, 2}, badSpec, {kindResyncDone, 1}} {
		if _, err := parse(bad); err == nil {
			t.Fatalf("bad frame %v accepted", bad)
		}
	}
}

// TestPushDoneReportsElapsedBudgetUse: mta_used_seconds is documented as
// elapsed/budget, so the server must add each push's elapsed time to it, as
// simnet does — not the MTA time, which the push-done frame also carries.
// The frames here report MTA times an eighth of their elapsed times.
func TestPushDoneReportsElapsedBudgetUse(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(3))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	reg := obs.NewRegistry()
	srv, err := NewServer(part, ServerConfig{Workers: 2, Threshold: 8, Metrics: reg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c, s := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(0, s) }()
	rc := transport.NewReceiver(c)
	var want float64
	for n, elapsed := range []float64{0.5, 0.25, 0.125} {
		if err := transport.WriteFrame(c, pushDoneMsg(nil, int64(n+1), elapsed/8, elapsed, true)); err != nil {
			t.Fatalf("push-done write: %v", err)
		}
		want += elapsed
		for { // the pull answering it: rows, then its done frame
			frame, err := rc.Recv()
			if err != nil {
				t.Fatalf("pull read: %v", err)
			}
			if frame[0] == kindPullDone {
				break
			}
		}
	}
	c.Close()
	<-done
	if got := reg.Snapshot().Floats["mta_used_seconds"]; got != want {
		t.Fatalf("mta_used_seconds = %g, want %g, the summed elapsed time", got, want)
	}
}

func compressPayload(t *testing.T) compress.Payload {
	t.Helper()
	c := compress.NewCodec([]int{8})
	return c.Encode(0, []float32{1, -2, 3, -4, 5, -6, 7, -8})
}

// TestClosedServerAnswersNoPush: once the server is closed it sends no pull,
// neither to a push parked at the staleness gate nor to a later push the
// gate would admit, and each handler returns, detaching its worker. A pull
// sent there would let an iteration run past a gate that never admitted it.
func TestClosedServerAnswersNoPush(t *testing.T) {
	const threshold = 2
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(3))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	parked := make(chan struct{}, 1)
	srv, err := NewServer(part, ServerConfig{Workers: 2, Threshold: threshold, Trace: tracerFunc(func(e obs.Event) {
		if e.Kind == obs.KindStallBegin {
			select {
			case parked <- struct{}{}:
			default:
			}
		}
	})})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// push connects worker, sends its push-done frames for iterations
	// 1..n and reads every pull but the last. The handler's result arrives
	// on done, the first frame answering push n (or the receive error) on
	// answered.
	push := func(worker int, n int64) (done, answered chan error) {
		c, s := net.Pipe()
		t.Cleanup(func() { c.Close() })
		done, answered = make(chan error, 1), make(chan error, 1)
		go func() { done <- srv.HandleConn(worker, s) }()
		rc := transport.NewReceiver(c)
		for k := int64(1); k <= n; k++ {
			if err := transport.WriteFrame(c, pushDoneMsg(nil, k, 0, 0, false)); err != nil {
				t.Fatalf("worker %d push %d: %v", worker, k, err)
			}
			for k < n {
				frame, err := rc.Recv()
				if err != nil {
					t.Fatalf("worker %d pull %d: %v", worker, k, err)
				}
				if frame[0] == kindPullDone {
					break
				}
			}
		}
		go func() {
			_, err := rc.Recv()
			answered <- err
		}()
		return done, answered
	}
	// noAnswer fails unless the handler returns nil before any frame answers.
	noAnswer := func(what string, done, answered chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: handler returned %v after Close, want nil", what, err)
			}
		case err := <-answered:
			t.Fatalf("%s: answered after Close (receive error %v), want no frame", what, err)
		}
	}

	// Worker 1 stays silent at version 0, so worker 0's push 2 parks.
	done, answered := push(0, 2)
	<-parked
	srv.Close()
	noAnswer("a push parked at the gate", done, answered)
	done, answered = push(1, 1)
	noAnswer("a push after Close", done, answered)
	if got := srv.ActiveWorkers(); got != 0 {
		t.Fatalf("%d workers attached after their handlers returned, want 0", got)
	}
}

// TestRejoinRebasesAtTheBaseline: a rejoining worker rebases its push stamps
// at the baseline the server re-baselined its rows at, as core's rejoin does,
// not at its own later iteration. The server holds a unit the worker never
// pushed at that baseline.
func TestRejoinRebasesAtTheBaseline(t *testing.T) {
	const iters, baseline = 5, 3
	model := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(3))
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	pol, err := defaultPolicy(part, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(model, part, discardConn{}, WorkerConfig{ID: 0, Workers: 2, Threshold: 8, Policy: fixedPush{pol, []int{0}}})
	for n := int64(1); n <= iters; n++ {
		w.rep.Accumulate()
		if _, err := w.push(n); err != nil {
			t.Fatal(err)
		}
	}
	w.iter = iters
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		_ = transport.WriteFrame(s, resyncDoneMsg(nil, baseline, 0.01, baseline, 1)) // a failed write fails Rejoin below
	}()
	if err := w.Rejoin(c); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if got := w.Iterations(); got != iters {
		t.Fatalf("iteration %d after a rejoin at baseline %d, want %d: it never moves back", got, baseline, iters)
	}
	if got := w.rep.PushIter[0]; got != iters {
		t.Fatalf("pushed unit 0 stamped %d after the rejoin, want %d: stamps never move back", got, iters)
	}
	if got := w.rep.PushIter[1]; got != baseline {
		t.Fatalf("unpushed unit 1 stamped %d after the rejoin, want the baseline %d", got, baseline)
	}
}
