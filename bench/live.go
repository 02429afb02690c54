package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rog/internal/harness"
	"rog/internal/livenet"
	"rog/internal/rowsync"
)

// live-loopback trains the CRUDA MLP on the socket runtime: one
// livenet.Server and liveWorkers livenet.Workers in this process, each
// worker on its own TCP connection over 127.0.0.1. The loop is closed: a
// worker starts its next iteration when the previous one returned. One
// segment is a fixed number of iterations per worker.
const (
	liveWorkers   = 2
	liveThreshold = 4
	liveShards    = 2
	// liveEvery is the work between two calibrations of a worker's meter:
	// a couple of iterations.
	liveEvery = 5 * time.Millisecond
)

type liveInstance struct {
	sz      *sizes
	wl      *harness.CRUDAWorkload
	srv     *livenet.Server
	ln      net.Listener
	conns   []net.Conn // worker ends; *tracedConn when traced
	workers []*livenet.Worker
	ms      []*meter       // one per worker goroutine
	serving sync.WaitGroup // HandleConn goroutines
	srvErr  atomic.Pointer[error]

	rec     *recorder
	tracks  []*track
	merged  atomic.Int64 // rows merged at the server (ServerConfig.OnMerge), traced only
	iterErr error        // first RunIteration error, kept for verify

	// traced accumulators over all segments
	iterWall, compute []float64 // seconds per iteration
	segRates          []float64
	iters             float64
	baseIO            connStats // counters at the end of the warm-up
	baseRows          float64
}

func setupLive(seed uint64, sz *sizes, rec *recorder) (instance, error) {
	in := &liveInstance{sz: sz, rec: rec}
	in.wl = harness.NewCRUDA(crudaOptions(seed, liveWorkers, sz))
	part := rowsync.NewPartition(in.wl.Model(0).Params(), rowsync.Rows)
	cfg := livenet.ServerConfig{Workers: liveWorkers, Threshold: liveThreshold, Shards: liveShards}
	if rec != nil {
		cfg.OnMerge = func(int, int, int64) { in.merged.Add(1) }
	}
	srv, err := livenet.NewServer(part, cfg)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if in.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for id := 0; id < liveWorkers; id++ {
		// Dial and accept in step, so that connection id is worker id.
		c, err := net.Dial("tcp", in.ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, in.close())
		}
		s, err := in.ln.Accept()
		if err != nil {
			return nil, errors.Join(err, c.Close(), in.close())
		}
		in.serving.Add(1)
		go func(id int, s net.Conn) {
			defer in.serving.Done()
			if err := in.srv.HandleConn(id, s); err != nil {
				in.srvErr.CompareAndSwap(nil, &err)
			}
			_ = s.Close() // the worker end closing is what ended HandleConn
		}(id, s)
		if rec != nil {
			c = &tracedConn{Conn: c}
		}
		in.conns = append(in.conns, c)
		in.tracks = append(in.tracks, rec.track(fmt.Sprintf("worker%d", id)))
		in.ms = append(in.ms, newMeter(liveEvery, in.tracks[id]))
		in.workers = append(in.workers, livenet.NewWorker(in.wl.Model(id), part, c, livenet.WorkerConfig{
			ID: id, Workers: liveWorkers, Threshold: liveThreshold, LR: crudaLR, Momentum: crudaMomentum,
		}))
	}
	return in, nil
}

func (in *liveInstance) warmup() error {
	_, _, err := in.iterate(in.sz.liveWarmup, false)
	if in.rec != nil {
		// The counters run from connection set-up; the segments start here.
		in.baseIO, in.baseRows = in.ioTotals(), in.rowsMerged()
	}
	return err
}

func (in *liveInstance) ioTotals() connStats {
	var io connStats
	for _, c := range in.conns {
		io.add(c.(*tracedConn).connStats)
	}
	return io
}

func (in *liveInstance) rowsMerged() float64 { return float64(in.merged.Load()) }

func (in *liveInstance) meters() []*meter { return in.ms }

func (in *liveInstance) segment() (float64, []float64, error) {
	for _, t := range in.tracks {
		t.nextRun()
	}
	t0 := time.Now()
	ops, lat, err := in.iterate(in.sz.liveIters, in.rec != nil)
	in.segRates = append(in.segRates, ops/time.Since(t0).Seconds())
	return ops, lat, err
}

// iterate runs n iterations on every worker concurrently and returns the
// iterations completed and each one's time in reference seconds: a worker
// calibrates its meter between iterations, and an iteration is scaled by
// the factor of the piece it fell into.
func (in *liveInstance) iterate(n int, traced bool) (float64, []float64, error) {
	lats := make([][]float64, liveWorkers) // as measured
	refs := make([][]float64, liveWorkers) // in reference seconds
	comps := make([][]float64, liveWorkers)
	errs := make([]error, liveWorkers)
	var wg sync.WaitGroup
	for id := range in.workers {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, tr, m := in.workers[id], in.tracks[id], in.ms[id]
			closePiece := func() { refs[id] = m.lapScaled(lats[id], refs[id]) }
			m.start()
			defer closePiece()
			var computeDur time.Duration
			grad := func() { in.wl.ComputeGradients(id) }
			if traced {
				grad = func() {
					c0 := time.Now()
					sp := tr.begin("nn.compute")
					in.wl.ComputeGradients(id)
					tr.end(sp)
					computeDur = time.Since(c0)
				}
			}
			for k := 0; k < n; k++ {
				t0 := time.Now()
				sp := tr.begin("livenet.iter")
				err := w.RunIteration(grad)
				tr.end(sp)
				if err != nil {
					errs[id] = fmt.Errorf("worker %d iteration %d: %w", id, w.Iterations(), err)
					return
				}
				lats[id] = append(lats[id], time.Since(t0).Seconds())
				if traced {
					comps[id] = append(comps[id], computeDur.Seconds())
				}
				if m.due() {
					closePiece()
				}
			}
		}(id)
	}
	wg.Wait()
	var lat []float64
	for id := range lats {
		lat = append(lat, refs[id]...)
		if traced {
			in.iterWall = append(in.iterWall, lats[id]...)
			in.compute = append(in.compute, comps[id]...)
		}
	}
	if traced {
		in.iters += float64(len(lat))
	}
	err := errors.Join(errs...)
	if err != nil && in.iterErr == nil {
		in.iterErr = err
	}
	return float64(len(lat)), lat, err
}

func (in *liveInstance) cancel() {
	for _, c := range in.conns {
		_ = c.Close() // unblocks a worker stuck in Read or Write; close reports the rest
	}
}

func (in *liveInstance) close() error {
	var errs []error
	for _, c := range in.conns {
		errs = append(errs, c.Close())
	}
	in.serving.Wait()
	in.srv.Close()
	errs = append(errs, in.ln.Close())
	if e := in.srvErr.Load(); e != nil {
		errs = append(errs, fmt.Errorf("server handler: %w", *e))
	}
	return errors.Join(errs...)
}

func (in *liveInstance) fingerprint() []string { return nil }

func (in *liveInstance) verify(t *tally) {
	checkLive(t, in.srv.MaxStalenessObserved(), in.iterErr, in.wl.Evaluate(), in.wl.PretrainNoisyAcc)
}

// checkLive is live-loopback's correctness check.
func checkLive(t *tally, maxStale int64, iterErr error, acc, pretrainAcc float64) {
	t.check(maxStale <= liveThreshold, "live-loopback: staleness %d over bound %d", maxStale, liveThreshold)
	t.check(iterErr == nil, "live-loopback: %v", iterErr)
	t.check(acc >= pretrainAcc, "live-loopback: accuracy %.4f fell below the pretrained model's %.4f", acc, pretrainAcc)
}

func (in *liveInstance) layers(out map[string]float64, p *pass, _ *tally) {
	io := in.ioTotals()
	io.sub(in.baseIO)
	iterTotal := sum(in.iterWall)
	sync := make([]float64, len(in.iterWall))
	for i := range sync {
		sync[i] = in.iterWall[i] - in.compute[i]
	}
	out["nn.compute_s"] = sum(in.compute) / float64(len(p.segs))
	out["nn.compute_share"] = ratio(sum(in.compute), iterTotal)
	out["livenet.compute_share"] = out["nn.compute_share"]
	out["transport.write_calls_per_iter"] = ratio(float64(io.writes), in.iters)
	out["transport.read_calls_per_iter"] = ratio(float64(io.reads), in.iters)
	out["transport.wire_bytes_per_iter"] = ratio(float64(io.bytesOut+io.bytesIn), in.iters)
	out["transport.write_busy_share"] = ratio(float64(io.writeNs)/1e9, iterTotal)
	out["transport.read_wait_share"] = ratio(float64(io.readNs)/1e9, iterTotal)
	out["livenet.other_share"] = 1 - out["livenet.compute_share"] - out["transport.write_busy_share"] - out["transport.read_wait_share"]
	out["livenet.iter_sync_p50_ms"] = 1e3 * median(sync)
	out["livenet.iter_p99_ms"] = 1e3 * quantile(in.iterWall, 0.99)
	rows := in.rowsMerged() - in.baseRows
	out["livenet.rows_merged"] = rows / float64(len(p.segs))
	out["livenet.rows_per_s"] = ratio(rows, sum(p.walls()))
	out["livenet.max_staleness"] = float64(in.srv.MaxStalenessObserved())
	out["livenet.segment_spread"] = ratio(slices.Max(in.segRates)-slices.Min(in.segRates), median(in.segRates))
	// Per-worker rate against the plain SGD loop's: each worker has a core.
	out["core.sync_overhead_x"] = ratio(out["nn.local_iters_per_s"], ratio(in.iters, sum(p.walls()))/liveWorkers)
}

// connStats counts what a worker asked of its connection and how long the
// calls took: Write time is time the worker was busy sending, Read time is
// time it waited for the server.
type connStats struct {
	reads, writes     int64
	bytesIn, bytesOut int64
	readNs, writeNs   int64
}

func (s *connStats) add(o connStats) {
	s.reads += o.reads
	s.writes += o.writes
	s.bytesIn += o.bytesIn
	s.bytesOut += o.bytesOut
	s.readNs += o.readNs
	s.writeNs += o.writeNs
}

func (s *connStats) sub(o connStats) {
	s.reads -= o.reads
	s.writes -= o.writes
	s.bytesIn -= o.bytesIn
	s.bytesOut -= o.bytesOut
	s.readNs -= o.readNs
	s.writeNs -= o.writeNs
}

// tracedConn is the net.Conn interposer of the traced pass. One worker
// goroutine owns each connection, so the counters need no lock; they are
// read after that goroutine has been joined.
type tracedConn struct {
	net.Conn
	connStats
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readNs += int64(time.Since(t0))
	c.reads++
	c.bytesIn += int64(n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs += int64(time.Since(t0))
	c.writes++
	c.bytesOut += int64(n)
	return n, err
}
