package livenet

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// TestChaosTraceEventsPair is the tracing satellite for the socket runtime:
// a crash/rejoin cycle under a shared JSONL tracer must produce a stream
// whose Detach/Reconnect/Resync events pair up and whose stall intervals
// nest — no StallEnd without a StallBegin, no Reconnect without a Detach.
func TestChaosTraceEventsPair(t *testing.T) {
	const workers, threshold = 4, 4
	const survivorIters, victimFirst = 20, 5

	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	reg := obs.NewRegistry()

	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(33))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{
		Workers: workers, Threshold: threshold, Trace: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	var models []*nn.Sequential
	var ws []*Worker
	var handlerWG sync.WaitGroup
	var conns []net.Conn
	for i := 0; i < workers; i++ {
		m := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models = append(models, m)
		c, s := net.Pipe()
		conns = append(conns, c, s)
		handlerWG.Add(1)
		go func(id int, conn net.Conn) {
			defer handlerWG.Done()
			// Crash-induced handler errors are the scenario, not failures.
			_ = srv.HandleConn(id, conn)
		}(i, s)
		cfg := WorkerConfig{ID: i, Threshold: threshold, LR: 0.1, Momentum: 0.9}
		if i == 0 {
			cfg.Trace = tr // the victim also traces its iteration spans
		}
		ws = append(ws, NewWorker(m, part, c, cfg))
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		srv.Close()
		handlerWG.Wait()
	}()

	data := newClusterData(29)
	compute := func(id int, r *tensor.RNG) func() {
		return func() {
			x, y := data.batch(r, 16)
			_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
			models[id].Backward(g)
		}
	}

	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id) + 61)
			for k := 0; k < survivorIters; k++ {
				if err := ws[id].RunIteration(compute(id, r)); err != nil {
					t.Errorf("survivor %d: %v", id, err)
					return
				}
			}
		}(i)
	}

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
		for srv.ActiveWorkers() == workers {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)

		c, s := net.Pipe()
		handlerWG.Add(1)
		go func() {
			defer handlerWG.Done()
			_ = srv.HandleConn(0, s)
		}()
		if err := w.Rejoin(c); err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		target := w.Iterations() + int64(threshold-1)
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
		t.Fatal("deadlock in traced crash/rejoin run")
	}
	for _, c := range conns {
		c.Close()
	}
	srv.Close()
	handlerWG.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	an, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := an.Summary()
	if len(sum.PairErrors) != 0 {
		t.Fatalf("pairing violations in live trace: %v", sum.PairErrors)
	}
	churn := srv.Churn()
	if int(sum.Reconnects) != churn.Reconnects {
		t.Fatalf("trace reconnects = %d, churn = %d", sum.Reconnects, churn.Reconnects)
	}
	if int(sum.ResyncRows) != churn.RowsResynced {
		t.Fatalf("trace resync rows = %d, churn = %d", sum.ResyncRows, churn.RowsResynced)
	}
	if sum.Detaches < 1 || sum.Reconnects < 1 || sum.Resyncs < 1 {
		t.Fatalf("trace missed the crash/rejoin cycle: detach=%d reconnect=%d resync=%d",
			sum.Detaches, sum.Reconnects, sum.Resyncs)
	}
	// The victim traced its iteration spans; real-time composition must be
	// present and non-negative.
	if sum.Iters == 0 {
		t.Fatal("victim traced no IterEnd events")
	}
	comp, comm, stall := sum.Composition()
	if comp < 0 || comm < 0 || stall < 0 {
		t.Fatalf("negative composition %g/%g/%g", comp, comm, stall)
	}
	// Registry counters moved alongside the trace.
	snap := reg.Snapshot()
	if snap.Counters["rows_merged"] == 0 {
		t.Fatal("server registry recorded no merges")
	}
	if snap.Counters["detaches"] == 0 || snap.Counters["reconnects"] == 0 {
		t.Fatalf("server registry missed churn: %+v", snap.Counters)
	}
}

// TestMaxStalenessIsTheTracedMaximum: the staleness a server reports is the
// largest lead any merge stamped over the run — the largest Lag its trace
// shows — not the lead left standing when the workers finish level, which is
// 0 and would make every threshold assertion on it vacuous.
func TestMaxStalenessIsTheTracedMaximum(t *testing.T) {
	const workers, threshold, iters = 3, 4, 12
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	srv, ws, models, cleanup := liveCluster(t, workers, threshold, 5, func(c *ServerConfig) { c.Trace = tr })
	data := newClusterData(9)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id) + 1)
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
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	an, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := an.Summary()
	var traced int64
	for _, u := range sum.Units {
		traced = max(traced, u.MaxLag)
	}
	if got := srv.MaxStalenessObserved(); got != traced || got <= 0 || got > threshold {
		t.Fatalf("MaxStalenessObserved = %d, the trace's largest merge lag %d; want them equal and in (0, %d]", got, traced, threshold)
	}
}
