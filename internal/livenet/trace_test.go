package livenet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
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

// TestDebugEndpointServesSnapshot starts a server with the opt-in HTTP
// debug endpoint and checks the live registry snapshot comes back as JSON.
func TestDebugEndpointServesSnapshot(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(7))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	reg := obs.NewRegistry()
	reg.Counter("rows_merged").Add(3)
	srv, err := NewServer(part, ServerConfig{
		Workers: 2, Threshold: 4, Metrics: reg, DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	addr := srv.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty after configuring a debug endpoint")
	}
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("GET debug endpoint: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("debug endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if snap.Counters["rows_merged"] != 3 {
		t.Fatalf("snapshot counters = %v, want rows_merged=3", snap.Counters)
	}

	// The pprof mounts come with the listener.
	prof, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET pprof cmdline: %v", err)
	}
	defer prof.Body.Close()
	cmdline, err := io.ReadAll(prof.Body)
	if err != nil {
		t.Fatal(err)
	}
	if prof.StatusCode != http.StatusOK || !bytes.Contains(cmdline, []byte(os.Args[0])) {
		t.Fatalf("pprof cmdline = %d %q, want 200 and this binary's name", prof.StatusCode, cmdline)
	}
}

// TestCloseEndsDebugConnections holds a keep-alive connection open on the
// debug endpoint, closes the server, and checks that the connection is
// closed from the server's side and that no connection-serving goroutine
// outlives the server.
func TestCloseEndsDebugConnections(t *testing.T) {
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(7))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{
		Workers: 2, Threshold: 4, Metrics: obs.NewRegistry(), DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close() // a second Close is harmless
	conn, err := net.Dial("tcp", srv.DebugAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: debug\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the debug response: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.Close {
		t.Fatalf("debug response: %v, Close=%v; want a whole body on a kept-alive connection", err, resp.Close)
	}
	resp.Body.Close()
	if connServeGoroutines() == 0 {
		t.Fatal("no connection-serving goroutine while the connection is open")
	}

	srv.Close()
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after Close = %v, want io.EOF: the server kept the connection", err)
	}
	for deadline := time.Now().Add(10 * time.Second); connServeGoroutines() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection-serving goroutines left after Close", connServeGoroutines())
		}
	}
}

// connServeGoroutines counts the goroutines serving an HTTP connection.
func connServeGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("net/http.(*conn).serve("))
}
