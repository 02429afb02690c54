package serve

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rog/internal/lossnet"
	"rog/internal/transport"
)

// wallClock is the test-only real-time clock: tests may use time.* (the
// lint loader skips _test.go), and the socket paths genuinely run on
// goroutine time rather than a simnet kernel.
type wallClock struct{ start time.Time }

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (w wallClock) Now() float64 { return time.Since(w.start).Seconds() }

func (w wallClock) After(d float64, fn func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}

// immediateServer serves each request the moment it arrives: MaxBatch 1
// flushes synchronously inside Submit, so no timer is involved.
func immediateServer(t *testing.T) *Server {
	t.Helper()
	r := newRig(t, 2, 2, Config{MaxBatch: 1, Clock: newWallClock()})
	return r.srv
}

func TestServeConnRoundTrip(t *testing.T) {
	srv := immediateServer(t)
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()

	cl := NewClient(cs)
	for i := 0; i < 3; i++ {
		rep, err := cl.Do([]float32{0.1, 0.2, 0.3, float32(i)}, 0)
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if rep.ID != int64(i+1) {
			t.Fatalf("reply id %d, want %d", rep.ID, i+1)
		}
		if len(rep.Output) != 3 {
			t.Fatalf("reply carried %d outputs, want 3", len(rep.Output))
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
}

// TestServeRoundTripAllocs guards the socket request path end to end: at
// window 0 a Client.Do against ServeConn decodes into the client's and the
// connection's scratch, is served from a pooled flush buffer and is framed
// into connection-owned batches, so a steady stream of calls allocates
// nothing. The bound leaves room for sync.Pool refilling after a GC.
func TestServeRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	r := newRig(t, 2, 2, Config{Clock: newWallClock()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.srv.Serve(l) }()
	defer func() { _ = l.Close() }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer func() { _ = cl.Close() }()
	input := []float32{0.1, 0.2, 0.3, 0.4}
	do := func() {
		rep, err := cl.Do(input, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Output) != r.outDim {
			t.Fatalf("reply carried %d outputs, want %d", len(rep.Output), r.outDim)
		}
	}
	for i := 0; i < 100; i++ {
		do() // grow every buffer on both ends once
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Fatalf("a round trip allocates %.3f times, want ≤ 0.05", per)
	}
}

func TestServeListener(t *testing.T) {
	srv := immediateServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = l.Close() }()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			cl := NewClient(conn)
			defer func() { _ = cl.Close() }()
			for i := 0; i < 5; i++ {
				if _, err := cl.Do([]float32{1, 2, 3, 4}, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Served != clients*5 {
		t.Fatalf("served %d, want %d", st.Served, clients*5)
	}
}

func TestServeConnRejectsMalformedRequest(t *testing.T) {
	srv := immediateServer(t)
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()
	go func() {
		// A full-size frame that is not a request at all.
		bad := make([]byte, 21)
		bad[0] = 0xEE
		_ = transport.WriteFrame(cs, bad)
	}()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "not a request") {
		t.Fatalf("ServeConn = %v, want a decode error", err)
	}
	_ = cs.Close()
}

// TestClientRetriesThroughLoss runs the client over a frame-dropping
// channel: a dropped request means no reply ever comes, the read deadline
// fires, and a retry on a fresh exchange eventually lands. This is the
// serve-tier analogue of training's loss-tolerant push path — whole frames
// vanish, the stream stays parseable.
func TestClientRetriesThroughLoss(t *testing.T) {
	srv := immediateServer(t)
	// TCP rather than net.Pipe: the kernel socket buffer absorbs replies
	// whose request the client already gave up on, so a late reply can
	// never wedge the server's write against the client's retry write.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = l.Close() }()
	cs, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// Drop half the client's request frames, deterministically.
	lossy := lossnet.WrapConn(cs, lossnet.NewBernoulli(0.5, 11), func(b []byte) bool { return true })
	cl := NewClient(lossy)
	got := 0
	for i := 0; i < 6; i++ {
		var rep Reply
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			_ = lossy.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			rep, err = cl.Do([]float32{1, 0, 0, 1}, 0)
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("request %d never survived the channel: %v", i, err)
		}
		if len(rep.Output) != 3 {
			t.Fatalf("reply carried %d outputs", len(rep.Output))
		}
		got++
	}
	if drops, _ := lossy.Dropped(); drops == 0 {
		t.Fatal("loss model dropped nothing; the test exercised a clean channel")
	}
	if got != 6 {
		t.Fatalf("completed %d exchanges, want 6", got)
	}
	_ = cl.Close()
}
