package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/core"
	"rog/internal/durable"
	"rog/internal/engine"
	"rog/internal/harness"
	"rog/internal/lossnet"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/simnet"
	"rog/internal/tensor"
	"rog/internal/trace"
	"rog/internal/transport"
)

// The layer drivers time one exported function of one package at the
// shapes the workloads use. They run in every traced invocation, before
// the workload's own passes, and do not depend on the workload.

// layerEnv is what the drivers share: the CRUDA task (MLP 32-64-64-100,
// 163 rows, batch 24), the fleet MLP, and a place for the first error.
type layerEnv struct {
	seed      uint64
	wl        *harness.CRUDAWorkload
	model     *nn.Sequential
	part      *rowsync.Partition
	units     []int
	vals      [][]float32 // one gradient-sized row per unit
	fleetPart *rowsync.Partition
	x         *tensor.Matrix // one training batch: 24 inputs
	labels    []int
	err       error
}

func (e *layerEnv) fail(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// crudaRows is the CRUDA MLP's row count: 32+1, 64+1 and 64+1 rows of
// weights and biases.
const crudaRows = 163

func newLayerEnv(seed uint64, sz *sizes) *layerEnv {
	e := &layerEnv{seed: seed}
	e.wl = harness.NewCRUDA(crudaOptions(seed, 2, sz))
	e.model = e.wl.Model(1) // replica 0 is trained by the local-SGD driver
	e.part = rowsync.NewPartition(e.model.Params(), rowsync.Rows)
	if n := e.part.NumUnits(); n != crudaRows {
		e.fail(fmt.Errorf("CRUDA model has %d rows, the drivers assume %d", n, crudaRows))
	}
	rng := tensor.NewRNG(seed*31 + 5)
	for u := 0; u < e.part.NumUnits(); u++ {
		e.units = append(e.units, u)
		row := make([]float32, e.part.Unit(u).Len)
		for j := range row {
			row[j] = float32(rng.Norm() * 0.01)
		}
		e.vals = append(e.vals, row)
	}
	e.fleetPart = rowsync.NewPartition(newFleetWorkload(1, seed).Model(0).Params(), rowsync.Rows)
	e.x = tensor.New(24, e.model.Params()[0].Rows)
	e.x.FillNormal(rng, 1)
	classes := e.model.Params()[len(e.model.Params())-1].Cols
	for i := 0; i < 24; i++ {
		e.labels = append(e.labels, rng.Intn(classes))
	}
	return e
}

func (e *layerEnv) rogState(workers, shards int, part *rowsync.Partition) *engine.State {
	pol, err := engine.New("rog", engine.Params{Workers: workers, Threshold: liveThreshold, NumUnits: part.NumUnits()})
	if err != nil {
		panic(err) // "rog" is always registered
	}
	return engine.NewStateSharded(pol, part, workers, 1.0, shards)
}

// driver is one timed function. ns and allocs name the metrics its time
// and allocation count per operation go to ("" drops one); per is how many
// operations one call of op performs, times how many nanoseconds make the
// metric's unit.
type driver struct {
	ns, allocs string
	per        float64
	setup      func(e *layerEnv) (op func(), done func())
}

// timeOp sizes a batch of calls to last about sz.layerBatch, runs
// sz.layerRounds batches and returns the fastest batch's time and the
// fewest allocations per call: the cost with the least interference.
func timeOp(sz *sizes, op func()) (ns, allocs float64) {
	op()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t0); d >= sz.layerBatch/4 || n >= 1<<22 {
			n = int(float64(n)*float64(sz.layerBatch)/float64(d+1)) + 1
			break
		}
		n *= 4
	}
	ns, allocs = math.Inf(1), math.Inf(1)
	var m0, m1 runtime.MemStats
	for r := 0; r < sz.layerRounds; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = math.Min(ns, float64(d)/float64(n))
		allocs = math.Min(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return ns, allocs
}

// layerDrivers runs every driver and the metrics derived from them. Names
// that start with "_" are intermediate values; only declared metrics are
// printed.
func layerDrivers(out map[string]float64, seed uint64, sz *sizes, t *tally) {
	e := newLayerEnv(seed, sz)
	for _, d := range drivers {
		op, done := d.setup(e)
		ns, allocs := timeOp(sz, op)
		if done != nil {
			done()
		}
		per := d.per
		if per == 0 {
			per = 1
		}
		if d.ns != "" {
			out[d.ns] = ns / per
		}
		if d.allocs != "" {
			out[d.allocs] = allocs / per
		}
		runtime.GC()
	}
	t.check(e.err == nil, "layer drivers: %v", e.err)
	out["tensor.mul128_gflops"] = ratio(2*128*128*128, out["tensor.mul128_ns"])
	out["nn.local_iters_per_s"] = ratio(1e9, out["_local_iter_ns"])
	out["simnet.events_per_s"] = ratio(1e9, out["_kernel_event_ns"])
	out["compress.ratio"] = compress.Ratio(64)
	out["durable.journal_overhead_x"] = ratio(out["durable.wal_append_ns"], out["_merge_plain_ns"])
	out["serve.rowsink_overhead_x"] = ratio(out["_merge_batch_sink_ns"], out["engine.merge_batch_s1_ns"])
}

const msNs = 1e6 // nanoseconds per millisecond, for drivers reported in ms

var drivers = []driver{
	// tensor: the three kernels at 128³ and the product the CRUDA hidden layer does.
	{ns: "tensor.mul128_ns", setup: mulDriver(128, 128, 128, tensor.MulInto)},
	{ns: "tensor.mul_transA128_ns", setup: mulDriver(128, 128, 128, tensor.MulTransAInto)},
	{ns: "tensor.mul_transB128_ns", setup: mulDriver(128, 128, 128, tensor.MulTransBInto)},
	{ns: "tensor.mul_cruda_ns", setup: mulDriver(24, 64, 64, tensor.MulInto)},

	// nn: one training step's parts, and the forward pass at the serving
	// (batch 1) and Evaluate (batch 2000) shapes.
	{ns: "nn.fwdbwd_ns", allocs: "nn.fwdbwd_allocs", setup: func(e *layerEnv) (func(), func()) {
		return func() {
			e.model.ZeroGrads()
			_, g := nn.SoftmaxCrossEntropy(e.model.Forward(e.x), e.labels)
			e.model.Backward(g)
		}, nil
	}},
	{ns: "nn.forward_b1_ns", setup: forwardDriver(1)},
	{ns: "nn.forward_b2000_ns", setup: forwardDriver(2000)},
	{ns: "nn.sgd_step_ns", setup: func(e *layerEnv) (func(), func()) {
		opt := nn.NewSGD(1e-6, crudaMomentum) // a step too small to move the shared model
		return func() { opt.Step(e.model.Params(), e.model.Grads()) }, nil
	}},
	{ns: "_local_iter_ns", setup: func(e *layerEnv) (func(), func()) {
		// Plain single-replica SGD on the CRUDA task: what a robot could do
		// with no synchronization at all.
		m, opt := e.wl.Model(0), nn.NewSGD(crudaLR, crudaMomentum)
		return func() {
			e.wl.ComputeGradients(0)
			opt.Step(m.Params(), m.Grads())
			m.ZeroGrads()
		}, nil
	}},

	// simnet: one timer scheduled and one fired, with 4096 pending.
	{ns: "_kernel_event_ns", setup: func(e *layerEnv) (func(), func()) {
		k, rng := simnet.NewKernel(), tensor.NewRNG(e.seed)
		for i := 0; i < 4096; i++ {
			k.After(rng.Float64(), func() {})
		}
		return func() {
			k.After(rng.Float64(), func() {})
			k.Step()
		}, nil
	}},

	// atp: ranking all rows of the CRUDA model and of the fleet model, and
	// building a plan over the ranking.
	{ns: "atp.rank_ns", allocs: "atp.rank_allocs", setup: func(e *layerEnv) (func(), func()) { return rankDriver(e, e.part.NumUnits()) }},
	{ns: "atp.rank_fleet_ns", setup: func(e *layerEnv) (func(), func()) { return rankDriver(e, e.fleetPart.NumUnits()) }},
	{ns: "atp.plan_ns", setup: func(e *layerEnv) (func(), func()) {
		size := func(u int) float64 { return float64(e.part.WireSize(u)) }
		return func() {
			p := atp.NewPlan(e.units, size)
			sink += p.DeliveredCount(p.TotalBytes() / 2)
		}, nil
	}},

	// rowsync: the per-iteration gradient bookkeeping and the version store
	// at the live (4 workers) and fleet (256 workers) sizes.
	{ns: "rowsync.accumulate_ns", setup: func(e *layerEnv) (func(), func()) {
		g := rowsync.NewGradStore(e.part)
		return func() { g.Accumulate(e.model.Grads()) }, nil
	}},
	{ns: "rowsync.meanabs_ns", setup: func(e *layerEnv) (func(), func()) {
		g := rowsync.NewGradStore(e.part)
		g.Accumulate(e.model.Grads())
		return func() {
			for _, u := range e.units {
				sinkF += g.MeanAbs(u)
			}
		}, nil
	}},
	{ns: "rowsync.version_update_w4_ns", setup: func(e *layerEnv) (func(), func()) { return versionDriver(4, e.part.NumUnits()) }},
	{ns: "rowsync.version_update_w256_ns", setup: func(e *layerEnv) (func(), func()) { return versionDriver(256, e.fleetPart.NumUnits()) }},

	// compress: one 64-wide row through the 1-bit codec.
	{ns: "compress.encode_row_ns", allocs: "compress.encode_allocs", setup: func(e *layerEnv) (func(), func()) {
		c, u := compress.NewCodec(e.part.Widths()), e.part.NumUnits()/2
		return func() { sink += c.Encode(u, e.vals[u]).N }, nil
	}},
	{ns: "compress.decode_row_ns", setup: func(e *layerEnv) (func(), func()) {
		u := e.part.NumUnits() / 2
		p, dst := compress.NewCodec(e.part.Widths()).Encode(u, e.vals[u]), make([]float32, len(e.vals[u]))
		return func() { compress.Decode(p, dst) }, nil
	}},
	{ns: "compress.marshal_ns", setup: func(e *layerEnv) (func(), func()) {
		u := e.part.NumUnits() / 2
		p := compress.NewCodec(e.part.Widths()).Encode(u, e.vals[u])
		return func() { sink += len(p.Marshal()) }, nil
	}},

	// engine: a whole-model push into the server state, alone and with two
	// goroutines pushing for different workers, and the pull plan.
	{ns: "engine.merge_batch_s1_ns", allocs: "engine.merge_allocs", setup: func(e *layerEnv) (func(), func()) { return mergeBatchDriver(e, 1, false) }},
	{ns: "engine.merge_batch_s8_ns", setup: func(e *layerEnv) (func(), func()) { return mergeBatchDriver(e, 8, false) }},
	{ns: "_merge_batch_sink_ns", setup: func(e *layerEnv) (func(), func()) { return mergeBatchDriver(e, 1, true) }},
	{ns: "engine.merge_contended_s1_ns", per: contendedMerges, setup: func(e *layerEnv) (func(), func()) { return contendedDriver(e, 1) }},
	{ns: "engine.merge_contended_s2_ns", per: contendedMerges, setup: func(e *layerEnv) (func(), func()) { return contendedDriver(e, 2) }},
	{ns: "engine.plan_pull_ns", setup: func(e *layerEnv) (func(), func()) {
		st := e.rogState(4, 1, e.part)
		st.MergeBatch(0, e.units, e.vals, 1)
		iter := int64(1)
		return func() { iter++; sink += len(st.PlanPull(1, iter).Units) }, nil
	}},

	// transport: one row-sized frame written and received, and a whole
	// push's frames sent over TCP loopback.
	{ns: "transport.frame_roundtrip_ns", allocs: "transport.frame_allocs", setup: func(e *layerEnv) (func(), func()) {
		a, b := net.Pipe()
		payload := make([]byte, compress.RowWireSize(64)+9)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := transport.NewReceiver(b)
			for {
				if _, err := rc.Recv(); err != nil {
					return // the pipe closing ends the reader
				}
			}
		}()
		return func() { e.fail(transport.WriteFrame(a, payload)) },
			func() { e.fail(a.Close()); wg.Wait(); e.fail(b.Close()) }
	}},
	{ns: "transport.send_frames_row_ns", per: crudaRows, setup: sendFramesDriver},

	// lossnet: one loss decision of the bursty channel model, and a
	// whole-push burst over a datagram pipe that drops nothing.
	{ns: "lossnet.model_drop_ns", setup: func(e *layerEnv) (func(), func()) {
		m := lossnet.NewGilbertElliott(0.05, 16, e.seed)
		return func() {
			if m.Lost(0) {
				sink++
			}
		}, nil
	}},
	{ns: "lossnet.burst_row_ns", allocs: "lossnet.burst_allocs_per_row", per: crudaRows, setup: burstDriver},

	// durable: a journaled row merge against a plain one, a checkpoint,
	// and a recovery from a snapshot plus a 4096-record log.
	{ns: "_merge_plain_ns", setup: func(e *layerEnv) (func(), func()) { return mergeRowDriver(e, 0) }},
	{ns: "durable.wal_append_ns", setup: func(e *layerEnv) (func(), func()) { return mergeRowDriver(e, 1) }},
	{ns: "durable.wal_append_sync64_ns", setup: func(e *layerEnv) (func(), func()) { return mergeRowDriver(e, 64) }},
	{ns: "durable.checkpoint_ms", per: msNs, setup: func(e *layerEnv) (func(), func()) {
		st, store := journaledState(e, 1)
		return func() { e.fail(store.Checkpoint(st, nil)) }, nil
	}},
	{ns: "durable.recover_ms", per: msNs, setup: recoverDriver},

	// serve: a request through the batcher in-process, alone and in a full
	// batch of 16, the wire codec, and loading a snapshot into a replica.
	{ns: "serve.submit_ns", setup: func(e *layerEnv) (func(), func()) { return submitDriver(e, 1) }},
	{ns: "serve.batch16_req_ns", per: 16, setup: func(e *layerEnv) (func(), func()) { return submitDriver(e, 16) }},
	{ns: "serve.frame_codec_ns", setup: func(e *layerEnv) (func(), func()) {
		in, outv := e.x.Row(0), make([]float32, 100)
		return func() {
			req, err := serve.DecodeRequest(serve.EncodeRequest(serve.RequestFrame{ID: 7, MinVersion: 3, Input: in}))
			e.fail(err)
			rep, err := serve.DecodeReply(serve.EncodeReply(serve.ReplyFrame{ID: req.ID, Version: 3, Seq: 9, Output: outv}))
			e.fail(err)
			sink += len(rep.Output)
		}, nil
	}},
	{ns: "serve.materialize_ns", setup: func(e *layerEnv) (func(), func()) {
		pub := serve.NewPublisher(e.rogState(4, 1, e.part), e.part, e.model.Params(), crudaLR)
		replica := nn.NewClassifierMLP(32, []int{64, 64}, 100, tensor.NewRNG(1))
		return func() { pub.Current().Materialize(e.part, replica.Params()) }, nil
	}},

	// obs: one merge event through a probe into a JSONL tracer.
	{ns: "obs.emit_ns", setup: func(e *layerEnv) (func(), func()) {
		tr := obs.NewJSONLTracer(io.Discard)
		p := obs.NewProbe(tr, nil, func() float64 { return 1.5 })
		return func() { p.Merge(1, 17, 42, 7, 42, 2) }, func() { e.fail(tr.Close()) }
	}},

	// trace: one robot's 300 s bandwidth trace, as core.Run makes per worker.
	{ns: "trace.generate_ms", per: msNs, setup: func(e *layerEnv) (func(), func()) {
		return func() { sink += len(trace.GenerateEnv(trace.Outdoor, 300, e.seed).Samples) }, nil
	}},
}

// sink and sinkF keep results alive so that the compiler cannot drop the
// timed calls.
var (
	sink  int
	sinkF float64
)

func mulDriver(m, k, n int, mul func(dst, a, b *tensor.Matrix)) func(e *layerEnv) (func(), func()) {
	return func(e *layerEnv) (func(), func()) {
		rng := tensor.NewRNG(e.seed)
		a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
		a.FillNormal(rng, 1)
		b.FillNormal(rng, 1)
		return func() { mul(dst, a, b) }, nil
	}
}

func forwardDriver(batch int) func(e *layerEnv) (func(), func()) {
	return func(e *layerEnv) (func(), func()) {
		x := tensor.New(batch, e.x.Cols)
		x.FillNormal(tensor.NewRNG(e.seed), 1)
		return func() { sink += e.model.Forward(x).Rows }, nil
	}
}

func rankDriver(e *layerEnv, units int) (func(), func()) {
	rng := tensor.NewRNG(e.seed)
	rows := make([]atp.RowInfo, units)
	for u := range rows {
		rows[u] = atp.RowInfo{ID: u, MeanAbs: rng.Float64(), Iter: int64(rng.Intn(8))}
	}
	return func() { sink += len(atp.Rank(rows, atp.Worker, atp.DefaultCoefficients())) }, nil
}

func versionDriver(workers, units int) (func(), func()) {
	vs := rowsync.NewVersionStore(workers, units)
	w, u, iter := 0, 0, int64(1)
	return func() {
		vs.Update(w, u, iter)
		sink += int(vs.Min())
		// Walk every (worker, unit) at one iteration before the next, as
		// a round of pushes does.
		if u++; u == units {
			u = 0
			if w++; w == workers {
				w, iter = 0, iter+1
			}
		}
	}, nil
}

// mergeBatchDriver pushes all rows for worker 0, 1, 2, 3, 0, ... at rising
// iterations; with sink set, a serve.Publisher consumes the merges.
func mergeBatchDriver(e *layerEnv, shards int, withSink bool) (func(), func()) {
	st := e.rogState(4, shards, e.part)
	if withSink {
		serve.NewPublisher(st, e.part, e.model.Params(), crudaLR)
	}
	k := 0
	return func() {
		st.MergeBatch(k%4, e.units, e.vals, int64(k/4+1))
		k++
	}, nil
}

const contendedMerges = 16 // merges per goroutine per timed call

// contendedDriver has two goroutines push for different workers at once.
func contendedDriver(e *layerEnv, shards int) (func(), func()) {
	st := e.rogState(2, shards, e.part)
	iter := int64(0)
	return func() {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int64(1); i <= contendedMerges; i++ {
					st.MergeBatch(w, e.units, e.vals, iter+i)
				}
			}(w)
		}
		wg.Wait()
		iter += contendedMerges
	}, nil
}

func sendFramesDriver(e *layerEnv) (func(), func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.fail(err)
		return func() {}, nil
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		e.fail(errors.Join(err, ln.Close()))
		return func() {}, nil
	}
	peer, err := ln.Accept()
	if err != nil {
		e.fail(errors.Join(err, conn.Close(), ln.Close()))
		return func() {}, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = io.Copy(io.Discard, peer) // ends when conn closes; a read error only ends the drain
	}()
	frames := make([][]byte, e.part.NumUnits())
	for u := range frames {
		frames[u] = make([]byte, e.part.WireSize(u)+9)
	}
	return func() {
			_, err := transport.SendFrames(conn, frames, time.Time{})
			e.fail(err)
		}, func() {
			e.fail(conn.Close())
			wg.Wait()
			e.fail(errors.Join(peer.Close(), ln.Close()))
		}
}

func burstDriver(e *layerEnv) (func(), func()) {
	a, b := lossnet.PacketPipe(nil, nil)
	tx, rx := lossnet.NewBurstSender(a, b.LocalAddr()), lossnet.NewBurstReceiver(b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := rx.RecvBurst(time.Now().Add(5*time.Second), func([]byte) {}); err != nil {
				return // the pipe closing (or an idle deadline) ends the receiver
			}
		}
	}()
	payloads := make([][]byte, e.part.NumUnits())
	for u := range payloads {
		payloads[u] = make([]byte, e.part.WireSize(u)+9)
	}
	reliable := func(i int) bool { return i < len(payloads)/4 } // about an MTA floor's share
	return func() {
			_, err := tx.SendBurst(payloads, reliable, time.Now().Add(5*time.Second))
			e.fail(err)
		}, func() {
			e.fail(errors.Join(a.Close(), b.Close()))
			wg.Wait()
		}
}

// journaledState is a server state whose transitions are logged to a
// durable store on an in-memory filesystem, synced every syncEvery appends.
func journaledState(e *layerEnv, syncEvery int) (*engine.State, *durable.Store) {
	st := e.rogState(4, 1, e.part)
	store, err := durable.Open(durable.NewMemFS(), "ckpt")
	if err == nil {
		store.SyncEvery = syncEvery
		err = store.Begin(st, nil)
	}
	e.fail(err)
	return st, store
}

// mergeRowDriver merges one 64-wide row per call; syncEvery 0 means no
// journal at all.
func mergeRowDriver(e *layerEnv, syncEvery int) (func(), func()) {
	st := e.rogState(4, 1, e.part)
	var store *durable.Store
	if syncEvery > 0 {
		st, store = journaledState(e, syncEvery)
	}
	u, k := e.part.NumUnits()/2, 0
	return func() {
			st.Merge(k%4, u, e.vals[u], int64(k/4+1))
			k++
		}, func() {
			if store != nil {
				e.fail(store.Err())
			}
		}
}

func recoverDriver(e *layerEnv) (func(), func()) {
	fs := durable.NewMemFS()
	st := e.rogState(4, 1, e.part)
	store, err := durable.Open(fs, "ckpt")
	if err == nil {
		err = store.Begin(st, nil)
	}
	e.fail(err)
	for k := 0; k < 4096; k++ {
		u := k % e.part.NumUnits()
		st.Merge(k%4, u, e.vals[u], int64(k/e.part.NumUnits()+1))
	}
	e.fail(store.Err())
	pol := st.Policy()
	return func() {
		// Recovery rewrites the directory, so each call works on a copy.
		again, err := durable.Open(fs.Clone(), "ckpt")
		if err != nil {
			e.fail(err)
			return
		}
		_, info, err := again.Recover(pol, e.part, 4, 1.0)
		e.fail(err)
		if err == nil {
			sink += info.ReplayedRecords
		}
	}, nil
}

// submitDriver submits batch requests per call to a server whose batcher
// flushes at batch; every reply arrives before the call returns.
func submitDriver(e *layerEnv, batch int) (func(), func()) {
	pub := serve.NewPublisher(e.rogState(4, 1, e.part), e.part, e.model.Params(), crudaLR)
	replica := nn.NewClassifierMLP(32, []int{64, 64}, 100, tensor.NewRNG(1))
	srv := serve.NewServer(pub, replica, 32, serve.Config{MaxBatch: batch, Clock: wallClock{start: time.Now()}})
	in, id := e.x.Row(0), int64(0)
	return func() {
		for i := 0; i < batch; i++ {
			id++
			e.fail(srv.Submit(serve.Request{ID: id, Input: in}, func(r serve.Reply) { sink += len(r.Output) }))
		}
	}, srv.Close
}

// obsOverhead prices the repo's own instruments: one ROG-4 system of
// fig1-cruda run with no tracer, with the JSONL tracer writing to nowhere,
// and with the streaming critical-path analyzer. The fastest of
// sz.obsRounds runs of each counts.
func obsOverhead(out map[string]float64, seed uint64, sz *sizes, t *tally) {
	scale := scaledQuick(sz)
	variants := []func() obs.Tracer{
		func() obs.Tracer { return nil },
		func() obs.Tracer { return obs.NewJSONLTracer(io.Discard) },
		func() obs.Tracer { return obs.NewCritPath() },
	}
	best := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	// The variants take turns, so that a slow spell of the box falls on all
	// of them and not on one.
	for r := 0; r < sz.obsRounds; r++ {
		for i, tracer := range variants {
			wl := harness.NewCRUDA(crudaOptions(seed, 4, sz))
			cfg := core.Config{
				Strategy: core.ROG, Workers: 4, Threshold: 4, Env: trace.Outdoor, Seed: crudaEnvSeed,
				ComputeSeconds: crudaComputeSeconds, BatchScale: 1, PaperModelBytes: crudaModelBytes,
				LR: crudaLR, Momentum: crudaMomentum, LRDecayIters: crudaLRDecayIters,
				MaxVirtualSeconds: scale.VirtualSeconds, CheckpointEvery: scale.CheckpointEvery,
				Trace: tracer(),
			}
			runtime.GC()
			t0 := time.Now()
			_, err := core.Run(cfg, wl)
			best[i] = math.Min(best[i], time.Since(t0).Seconds())
			t.check(err == nil, "obs overhead run: %v", err)
		}
	}
	out["obs.jsonl_overhead_frac"] = ratio(best[1], best[0]) - 1
	out["obs.critpath_overhead_frac"] = ratio(best[2], best[0]) - 1
}
