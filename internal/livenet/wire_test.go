package livenet

import (
	"bytes"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// crudaShaped is the benchmark's model: 32-64-64-100, 163 rows.
func crudaShaped(seed uint64) *nn.Sequential {
	return nn.NewClassifierMLP(32, []int{64, 64}, 100, tensor.NewRNG(seed))
}

// countingConn counts the Write calls and bytes that cross it.
type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// TestPushIsOneWrite pins the coalesced send on both hops: a worker's push
// of a whole CRUDA-shaped model is at most two Writes (the planned rows, the
// push-done) and so is the server's pull that answers it, where the
// per-row send path took one Write per row.
func TestPushIsOneWrite(t *testing.T) {
	const workers, iters = 2, 6
	proto := crudaShaped(3)
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	// A one-second budget floor: no plan of this test is cut by its
	// deadline, which would add the write that completes the floor.
	srv, err := NewServer(part, ServerConfig{Workers: workers, Threshold: 4, MTAFloorSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	var handlers sync.WaitGroup
	var up, down []*countingConn
	var ws []*Worker
	var models []*nn.Sequential
	for id := 0; id < workers; id++ {
		c, s := net.Pipe()
		up, down = append(up, &countingConn{Conn: c}), append(down, &countingConn{Conn: s})
		handlers.Add(1)
		go func(id int, conn net.Conn) {
			defer handlers.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(id, down[id])
		m := crudaShaped(1)
		m.CopyParamsFrom(proto)
		models = append(models, m)
		ws = append(ws, NewWorker(m, part, up[id], WorkerConfig{ID: id, Workers: workers, Threshold: 4, LR: 0.01}))
		ws[id].budget = 1 // as the first pull-done will set it
	}
	var wg sync.WaitGroup
	for id := range ws {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id) + 11)
			for k := 0; k < iters; k++ {
				err := ws[id].RunIteration(func() {
					for _, g := range models[id].Grads() {
						for i := range g.Data {
							g.Data[i] = float32(r.Norm())
						}
					}
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", id, k, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for id := range ws {
		up[id].Close()
	}
	srv.Close()
	handlers.Wait()

	// Every row of every push went out, so the writes carried whole plans.
	rowBytes := int64(iters * part.NumUnits() * transport.FrameOverhead)
	for id := 0; id < workers; id++ {
		for hop, c := range map[string]*countingConn{"push": up[id], "pull": down[id]} {
			if n := c.writes.Load(); n > 2*iters {
				t.Errorf("worker %d: %d Writes for %d %ses, want at most 2 each", id, n, iters, hop)
			}
			if c.bytes.Load() < rowBytes {
				t.Errorf("worker %d: %ses carried %d bytes, less than %d rows' framing", id, hop, c.bytes.Load(), iters*part.NumUnits())
			}
		}
	}
}

// loopReader replays data forever, a chunk at a time.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:min(len(l.data), l.off+1000)])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestWorkerPullDoesNotAllocate guards the worker's per-row receive path —
// Recv's view, parse aliasing it, the decode into the worker's scratch row
// and Replica.Apply — over a whole pull of a CRUDA-shaped model.
func TestWorkerPullDoesNotAllocate(t *testing.T) {
	model := crudaShaped(1)
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	codec := compress.NewCodec(part.Widths())
	r := tensor.NewRNG(5)
	var pull bytes.Buffer
	frame := func(body []byte) {
		if err := transport.WriteFrame(&pull, body); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < part.NumUnits(); u++ {
		row := make([]float32, part.Unit(u).Len)
		for i := range row {
			row[i] = float32(r.Norm())
		}
		frame(pullMsg(nil, codec.Encode(u, row)))
	}
	frame(pullDoneMsg(nil, 0.5, 3))

	w := NewWorker(model, part, nil, WorkerConfig{ID: 0, Workers: 2, Threshold: 4, Momentum: 0.9})
	w.rc = transport.NewReceiver(&loopReader{data: pull.Bytes()})
	before := model.Params()[0].Data[0]
	if err := w.pull(); err != nil { // grows the receiver's buffer and the optimizer's velocity once
		t.Fatal(err)
	}
	if model.Params()[0].Data[0] == before || w.budget != 0.5 || w.minVer != 3 {
		t.Fatal("the pull applied nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.pull(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a %d-row pull allocates %.1f times, want 0", part.NumUnits(), allocs)
	}
}

// discardConn swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// fixedPush plans the same units for every push, all of them mandatory.
type fixedPush struct {
	engine.Policy
	units []int
}

func (f fixedPush) PlanPush(engine.PushView) engine.Plan {
	return engine.Plan{Units: f.units, Must: len(f.units)}
}

// TestWorkerPushAllocationsDoNotGrowWithRows guards the worker's per-row
// send path — EncodeUnit into the Replica's bits, the frame marshalled into
// the worker's batch, the restore loop — the way TestWorkerPullDoesNotAllocate
// guards the receive path: a push of every row of a CRUDA-shaped model
// allocates exactly what a one-row push does (the plan's own prefix sums).
func TestWorkerPushAllocationsDoNotGrowWithRows(t *testing.T) {
	model := crudaShaped(1)
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	all := make([]int, part.NumUnits())
	for u := range all {
		all[u] = u
	}
	allocs := func(units []int) float64 {
		pol, err := defaultPolicy(part, 2, 4, atp.DefaultCoefficients())
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(model, part, discardConn{}, WorkerConfig{ID: 0, Workers: 2, Threshold: 4, Policy: fixedPush{pol, units}})
		n := int64(0)
		push := func() {
			n++
			for _, g := range model.Grads() {
				g.Data[0] = float32(n % 3)
			}
			w.rep.Accumulate()
			if _, err := w.push(n); err != nil {
				t.Fatal(err)
			}
		}
		push() // grows the batch and the payload list once
		return testing.AllocsPerRun(20, push)
	}
	if one, whole := allocs(all[:1]), allocs(all); whole != one {
		t.Fatalf("a %d-row push allocates %.1f times, a 1-row push %.1f: the per-row path allocates", len(all), whole, one)
	}
}

// FuzzParse throws arbitrary frame bodies at the protocol decoder, the way
// FuzzRecv does one layer down. Under any input parse must not panic; a
// frame it accepts must re-encode, through the message constructors, to the
// very bytes it was parsed from (nothing is dropped or invented); and a
// row's values, once decoded, must not depend on the frame any more — the
// payload aliases the receiver's buffer only until then.
func FuzzParse(f *testing.F) {
	p := compress.NewCodec([]int{11}).Encode(0, []float32{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11})
	for _, seed := range [][]byte{
		rowMsg(nil, 7, p), pushDoneMsg(nil, 7, 1.25, 2.5, true), pullMsg(nil, p), pullDoneMsg(nil, 0.5, 3),
		resyncDoneMsg(nil, 9, 0.25, 4, 2),
		{}, {'Z', 1}, {kindRow, 1}, {kindPushDone, 1, 2}, {kindResyncDone, 1},
		rowMsg(nil, 7, p)[:20], append(pullMsg(nil, p), 0),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := parse(frame)
		if err != nil {
			return
		}
		var again []byte
		switch msg.kind {
		case kindRow:
			again = rowMsg(nil, msg.iter, msg.payload)
		case kindPushDone:
			again = pushDoneMsg(nil, msg.iter, msg.mta, msg.elapsed, msg.spec)
		case kindPull:
			again = pullMsg(nil, msg.payload)
		case kindPullDone:
			again = pullDoneMsg(nil, msg.budget, msg.min)
		case kindResyncDone:
			again = resyncDoneMsg(nil, msg.iter, msg.budget, msg.min, msg.epoch)
		default:
			t.Fatalf("parse accepted unknown kind %q", msg.kind)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("kind %q re-encodes to %x, parsed from %x", msg.kind, again, frame)
		}
		if n := msg.payload.N; n > 0 && n <= 1<<16 {
			pristine, _ := parse(bytes.Clone(frame))
			vals, want := make([]float32, n), make([]float32, n)
			compress.Decode(msg.payload, vals)
			for i := range frame {
				frame[i] = ^frame[i] // the next Recv reuses the buffer
			}
			compress.Decode(pristine.payload, want)
			for i := range vals {
				if math.Float32bits(vals[i]) != math.Float32bits(want[i]) {
					t.Fatalf("value %d decoded before the frame was overwritten is %v, want %v", i, vals[i], want[i])
				}
			}
		}
	})
}

// TestMisfitRowIsAProtocolError: a row index or length off the wire that
// does not fit the partition is refused, not used to slice the scratch row.
func TestMisfitRowIsAProtocolError(t *testing.T) {
	model := crudaShaped(1)
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	dst := make([]float32, part.MaxUnitLen())
	fit := compress.NewCodec(part.Widths()).Encode(3, make([]float32, part.Unit(3).Len))
	if vals, err := decodeRow(part, fit, dst); err != nil || len(vals) != fit.N {
		t.Fatalf("fitting row: %d values, err %v", len(vals), err)
	}
	for name, p := range map[string]compress.Payload{
		"row past the model": {Row: part.NumUnits(), N: fit.N, Bits: fit.Bits},
		"negative row":       {Row: -1, N: fit.N, Bits: fit.Bits},
		"wrong length":       {Row: 3, N: fit.N + 8, Bits: append(fit.Bits, 0)},
		"longer than any":    {Row: 3, N: 8 * len(dst), Bits: make([]byte, len(dst))},
	} {
		if _, err := decodeRow(part, p, dst); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCutPushRowNeverHoldsBackPushDone cuts a speculative push of one
// 300-value row at every byte and follows it only with the push-done, over
// a net.Pipe that stays open: the row's missing tail never comes, and with
// IdleTimeout at its default of 0 nothing else would end the wait. The
// receiver must hand over the push-done instead; the read deadline fails a
// receiver that waits.
func TestCutPushRowNeverHoldsBackPushDone(t *testing.T) {
	vals := make([]float32, 300)
	for i := range vals {
		vals[i] = float32(i%7) - 3
	}
	var row, done bytes.Buffer
	if err := transport.WriteFrame(&row, rowMsg(nil, 5, compress.NewCodec([]int{len(vals)}).Encode(0, vals))); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(&done, pushDoneMsg(nil, 5, 0.25, 0.5, true)); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < row.Len(); cut++ {
		c, s := net.Pipe()
		go c.Write(append(row.Bytes()[:cut:cut], done.Bytes()...))
		if err := s.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		frame, err := transport.NewReceiver(s).Recv()
		var msg parsed
		if err == nil {
			msg, err = parse(frame)
		}
		c.Close()
		s.Close()
		if err != nil || msg.kind != kindPushDone || msg.iter != 5 {
			t.Fatalf("row cut after %d of %d bytes: got kind %q iter %d, err %v; want the push-done", cut, row.Len(), msg.kind, msg.iter, err)
		}
	}
}
