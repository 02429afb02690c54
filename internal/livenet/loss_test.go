package livenet

import (
	"net"
	"sync"
	"testing"
	"time"

	"rog/internal/lossnet"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// TestLossyRowFramesBoundedStaleness runs the live protocol with every
// worker's uplink behind a lossnet frame-dropping conn that discards row
// frames only (the kind byte sits right after the 12-byte transport header,
// so control frames — push-done, pull, pull-done — pass untouched and act
// as the reliable side channel). This is the stream-transport half of the
// loss story: a silently dropped row simply never merges, so its gradient
// mass is gone from the server's view until the worker's next push re-sends
// that unit with fresh mass. The run must still complete every iteration
// and the RSP staleness bound must hold throughout — the gate parks workers
// on the true (server-side) minimum, which only merges advance.
//
// What the stream path *cannot* see is the gap itself: the worker stamps
// pushIter optimistically at send, so a dropped row is indistinguishable
// from a delivered one on the sender. That blindness is exactly what the
// lossnet datagram transport's sequence numbers + NACK lists close.
func TestLossyRowFramesBoundedStaleness(t *testing.T) {
	const workers, threshold, iters = 3, 4, 25
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(41))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{Workers: workers, Threshold: threshold})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	var models []*nn.Sequential
	var ws []*Worker
	var lossy []*lossnet.Conn
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
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		lc := lossnet.WrapConn(c, lossnet.NewGilbertElliott(0.05, 4, uint64(i)*977+13), dropRowFrames)
		lossy = append(lossy, lc)
		ws = append(ws, NewWorker(m, part, lc, WorkerConfig{
			ID: i, Threshold: threshold, LR: 0.1, Momentum: 0.9,
		}))
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		srv.Close()
		handlerWG.Wait()
	}()

	data := newClusterData(23)
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: lossy cluster did not finish")
	}

	for i, w := range ws {
		if got := w.Iterations(); got != iters {
			t.Errorf("worker %d completed %d/%d iterations under loss", i, got, iters)
		}
	}
	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Errorf("staleness %d exceeded threshold %d under frame loss", got, threshold)
	}
	var drops, bytes int64
	for _, lc := range lossy {
		d, b := lc.Dropped()
		drops += d
		bytes += b
	}
	if drops == 0 {
		t.Fatal("the 5% channel dropped nothing — the loss injector never fired")
	}
	if bytes == 0 {
		t.Fatal("dropped frames carried no bytes")
	}
	t.Logf("dropped %d row frames (%d bytes) across %d workers", drops, bytes, workers)
}

// TestLossyConnPassesControlFrames pins the droppable predicate the chaos
// test relies on: with a rate-1.0 channel, every row frame vanishes but the
// push-done control frame still crosses — dropping it would stall the
// protocol rather than degrade it.
func TestLossyConnPassesControlFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	lc := lossnet.WrapConn(a, lossnet.NewBernoulli(1.0, 1), dropRowFrames)

	got := make(chan byte, 1)
	errs := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		n, err := b.Read(buf)
		if err != nil {
			errs <- err
			return
		}
		// Frame layout: 8-byte start marker, 4-byte length, payload.
		got <- buf[:n][12]
	}()

	if err := transport.WriteFrame(lc, rowMsg(nil, 3, compressPayload(t))); err != nil {
		t.Fatalf("row write: %v", err)
	}
	if err := transport.WriteFrame(lc, pushDoneMsg(nil, 3, 0.001)); err != nil {
		t.Fatalf("control write: %v", err)
	}

	select {
	case k := <-got:
		if k != kindPushDone {
			t.Fatalf("first frame through the channel was %q, want push-done", k)
		}
	case err := <-errs:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived — the predicate dropped it")
	}
	if d, _ := lc.Dropped(); d != 1 {
		t.Fatalf("dropped %d frames, want exactly the row frame", d)
	}
}

// dropRowFrames confines a lossnet.Conn's loss to row frames (frame layout:
// 8-byte start marker, 4-byte length, body): control frames model the
// reliable side channel a real deployment acks explicitly.
func dropRowFrames(frame []byte) bool { return len(frame) > 12 && frame[12] == kindRow }

// TestLossyConnSplitsCoalescedPush: a push leaves as one Write, and the
// channel model is still one draw per frame. Through a rate-0.5 channel a
// 20-row push loses some rows and keeps others (a per-Write draw would
// swallow all twenty or none), Dropped() counts frames, the survivors arrive
// whole and in order, and the push-done that follows always crosses.
func TestLossyConnSplitsCoalescedPush(t *testing.T) {
	const rows = 20
	for seed := uint64(1); seed <= 8; seed++ {
		a, b := net.Pipe()
		lc := lossnet.WrapConn(a, lossnet.NewBernoulli(0.5, seed), dropRowFrames)

		type result struct {
			got  []int
			done bool
			err  error
		}
		recv := make(chan result, 1)
		go func() {
			var r result
			rc := transport.NewReceiver(b)
			for !r.done && r.err == nil {
				frame, err := rc.Recv()
				if err != nil {
					r.err = err
					break
				}
				msg, err := parse(frame)
				r.err = err
				r.done = msg.kind == kindPushDone
				if msg.kind == kindRow {
					r.got = append(r.got, msg.payload.Row)
				}
			}
			recv <- r
		}()

		var out transport.Batch
		p := compressPayload(t)
		for row := 0; row < rows; row++ {
			p.Row = row
			out.End(rowMsg(out.Begin(), 3, p))
		}
		if sent, err := sendPlanned(lc, &out, 0, false, 0); err != nil || sent != rows {
			t.Fatalf("seed %d: push sent %d rows, err %v — a lost frame must look delivered", seed, sent, err)
		}
		out.Reset()
		out.End(pushDoneMsg(out.Begin(), 3, 0.001))
		if err := sendAll(lc, &out); err != nil {
			t.Fatalf("seed %d: push-done: %v", seed, err)
		}
		r := <-recv
		a.Close()
		b.Close()

		if r.err != nil || !r.done {
			t.Fatalf("seed %d: push-done did not arrive (err %v)", seed, r.err)
		}
		dropped, _ := lc.Dropped()
		if dropped == 0 || dropped == rows {
			t.Fatalf("seed %d: dropped %d of %d rows — the draw was per write, not per frame", seed, dropped, rows)
		}
		if int(dropped)+len(r.got) != rows {
			t.Fatalf("seed %d: dropped %d + received %d != %d rows sent", seed, dropped, len(r.got), rows)
		}
		for i := 1; i < len(r.got); i++ {
			if r.got[i] <= r.got[i-1] {
				t.Fatalf("seed %d: surviving rows out of order: %v", seed, r.got)
			}
		}
	}
}
