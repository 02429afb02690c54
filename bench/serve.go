package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"rog/internal/engine"
	"rog/internal/harness"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/tensor"
)

// serve-train uses one engine.State for writes and reads at once. A trainer
// goroutine merges whole-model pushes into it on an open-loop schedule
// (trainRate per second, whatever the readers do); a serve.Publisher turns
// the merges into snapshots; a serve.Server answers closed-loop clients
// over TCP loopback from those snapshots. One segment is a fixed number of
// requests per client.
const (
	trainWorkers = 4 // logical workers the trainer rotates through
	trainRate    = 1000
	trainRing    = 64 // pre-generated gradient sets the trainer cycles over
	serveShards  = 2
	gateEvery    = 100 // every gateEvery-th request demands a newer snapshot than it last saw
	// serveClients closed-loop clients keep requests in flight at all times.
	// With a single client the tier idles between a reply and the next
	// request, and what is measured is how fast the box wakes an idle CPU:
	// the median round trip moved by 40 % between two quiet spells of the
	// reference box with no change to the code.
	serveClients = 4
	// serveEvery is the work between two calibrations of a client's meter.
	// It is twice the other workloads' because four clients calibrate.
	serveEvery = 10 * time.Millisecond
)

// wallClock is the serving tier's Clock on the monotonic wall clock.
type wallClock struct{ start time.Time }

func (c wallClock) Now() float64 { return time.Since(c.start).Seconds() }
func (c wallClock) After(d float64, fn func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}

type serveInstance struct {
	sz      *sizes
	rec     *recorder
	classes int
	st      *engine.State
	pub     *serve.Publisher
	srv     *serve.Server
	ln      net.Listener
	serving sync.WaitGroup // accept loop and one ServeConn per client
	clients []*serveClient
	units   []int
	ring    [][][]float32

	stop     chan struct{}
	training sync.WaitGroup
	trainTr  *track
	reg      *obs.Registry // traced only

	mu       sync.Mutex
	mergeAt  []float64 // guarded by mu; start of each MergeBatch, seconds since the trainer started
	mergeDur []float64 // guarded by mu; seconds per MergeBatch
	late     []float64 // guarded by mu; seconds behind schedule per merge

	// traced accumulators over all segments
	plain, gated []float64 // seconds per request without and with a read gate
	base         serveCounters
	firstErr     error
	violations   []string
}

// serveClient is one closed-loop client and what it remembers between
// requests.
type serveClient struct {
	c      *serve.Client
	conn   net.Conn
	inputs [][]float32
	tr     *track
	m      *meter
	sent   int64 // requests issued so far
	last   int64 // newest snapshot version seen
}

// serveCounters are the server-side totals a segment range is a delta of.
type serveCounters struct {
	batches, served, publishes, stalls float64
}

func setupServe(seed uint64, sz *sizes, rec *recorder) (instance, error) {
	in := &serveInstance{sz: sz, rec: rec, stop: make(chan struct{}), trainTr: rec.track("trainer")}
	// Sized once, for the reason runPass gives for its sample buffer.
	const trainerSamples = 60 * trainRate
	in.mergeAt, in.mergeDur, in.late = make([]float64, 0, trainerSamples), make([]float64, 0, trainerSamples), make([]float64, 0, trainerSamples)
	proto := harness.NewCRUDA(crudaOptions(seed, 2, sz)).Model(0)
	params := proto.Params()
	inDim := params[0].Rows
	in.classes = params[len(params)-1].Cols
	part := rowsync.NewPartition(params, rowsync.Rows)
	policy, err := engine.New("rog", engine.Params{Workers: trainWorkers, Threshold: liveThreshold, NumUnits: part.NumUnits()})
	if err != nil {
		return nil, err
	}
	in.st = engine.NewStateSharded(policy, part, trainWorkers, 1.0, serveShards)
	in.pub = serve.NewPublisher(in.st, part, params, crudaLR)
	scratch := nn.NewClassifierMLP(inDim, []int{64, 64}, in.classes, tensor.NewRNG(1))
	scratch.CopyParamsFrom(proto)
	cfg := serve.Config{WindowSeconds: 0, MaxBatch: serveClients, Clock: wallClock{start: time.Now()}}
	if rec != nil {
		in.reg = obs.NewRegistry()
		probe := obs.NewProbe(nil, in.reg, cfg.Clock.Now)
		in.pub.Probe, cfg.Probe = probe, probe
	}
	in.srv = serve.NewServer(in.pub, scratch, inDim, cfg)

	rng := tensor.NewRNG(seed*7919 + 17)
	for u := 0; u < part.NumUnits(); u++ {
		in.units = append(in.units, u)
	}
	for i := 0; i < trainRing; i++ {
		set := make([][]float32, part.NumUnits())
		for u := range set {
			row := make([]float32, part.Unit(u).Len)
			for j := range row {
				row[j] = float32(rng.Norm() * 0.01)
			}
			set[u] = row
		}
		in.ring = append(in.ring, set)
	}

	if in.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	in.serving.Add(1)
	go in.accept()
	for c := 0; c < serveClients; c++ {
		conn, err := net.Dial("tcp", in.ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, in.close())
		}
		cl := &serveClient{conn: conn, c: serve.NewClient(conn), tr: rec.track(fmt.Sprintf("client%d", c))}
		cl.m = newMeter(serveEvery, cl.tr)
		for i := 0; i < 256; i++ {
			x := make([]float32, inDim)
			for j := range x {
				x[j] = float32(rng.Norm())
			}
			cl.inputs = append(cl.inputs, x)
		}
		in.clients = append(in.clients, cl)
	}
	return in, nil
}

// accept serves every connection until the listener closes; it returns
// once every ServeConn has.
func (in *serveInstance) accept() {
	defer in.serving.Done()
	for {
		conn, err := in.ln.Accept()
		if err != nil {
			return // the listener closing is the shutdown signal
		}
		in.serving.Add(1)
		go func() {
			defer in.serving.Done()
			_ = in.srv.ServeConn(conn) // a connection error ends that client, whose Do reports it
			_ = conn.Close()
		}()
	}
}

// train is the open-loop writer: merge k is due k/trainRate seconds after
// the start, whether or not the previous one finished on time.
func (in *serveInstance) train() {
	defer in.training.Done()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / trainRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-in.stop:
			return
		default:
		}
		late := time.Since(due)
		t0 := time.Now()
		sp := in.trainTr.begin("engine.merge_batch")
		in.st.MergeBatch(k%trainWorkers, in.units, in.ring[k%trainRing], int64(k/trainWorkers+1))
		in.trainTr.end(sp)
		d := time.Since(t0)
		in.mu.Lock()
		in.mergeAt = append(in.mergeAt, t0.Sub(start).Seconds())
		in.mergeDur = append(in.mergeDur, d.Seconds())
		in.late = append(in.late, late.Seconds())
		in.mu.Unlock()
	}
}

func (in *serveInstance) warmup() error {
	in.training.Add(1)
	go in.train()
	_, _, err := in.drive(in.sz.serveWarmup, false)
	in.mu.Lock()
	in.mergeAt, in.mergeDur, in.late = in.mergeAt[:0], in.mergeDur[:0], in.late[:0]
	in.mu.Unlock()
	in.base = in.counters()
	return err
}

func (in *serveInstance) segment() (float64, []float64, error) {
	in.trainTr.nextRun()
	for _, c := range in.clients {
		c.tr.nextRun()
	}
	return in.drive(in.sz.serveReqs, in.rec != nil)
}

func (in *serveInstance) meters() []*meter {
	ms := make([]*meter, len(in.clients))
	for i, c := range in.clients {
		ms[i] = c.m
	}
	return ms
}

// drive has every client issue n requests, each after the previous reply.
// A client calibrates its meter between requests; the latencies it returns
// are in reference seconds, each scaled by the factor of the piece it fell
// into.
func (in *serveInstance) drive(n int, traced bool) (float64, []float64, error) {
	type clientOut struct {
		lat, ref, plain, gated []float64 // ref is lat in reference seconds
		bad                    []string
		err                    error
	}
	outs := make([]clientOut, len(in.clients))
	var wg sync.WaitGroup
	for i, cl := range in.clients {
		wg.Add(1)
		go func(o *clientOut, cl *serveClient) {
			defer wg.Done()
			closePiece := func() { o.ref = cl.m.lapScaled(o.lat, o.ref) }
			cl.m.start()
			defer closePiece()
			for k := 0; k < n; k++ {
				cl.sent++
				var minVersion int64
				gate := cl.sent%gateEvery == 0
				if gate {
					minVersion = cl.last + 1
				}
				t0 := time.Now()
				sp := cl.tr.begin("serve.do")
				rep, err := cl.c.Do(cl.inputs[cl.sent%int64(len(cl.inputs))], minVersion)
				cl.tr.end(sp)
				d := time.Since(t0).Seconds()
				if err != nil {
					o.err = fmt.Errorf("request %d: %w", cl.sent, err)
					return
				}
				if msg := checkReply(rep, cl.sent, minVersion, cl.last, in.classes); msg != "" {
					o.bad = append(o.bad, msg)
				}
				cl.last = rep.Version
				o.lat = append(o.lat, d)
				if gate {
					o.gated = append(o.gated, d)
				} else {
					o.plain = append(o.plain, d)
				}
				if cl.m.due() {
					closePiece()
				}
			}
		}(&outs[i], cl)
	}
	wg.Wait()
	var lat []float64
	var errs []error
	for _, o := range outs {
		lat = append(lat, o.ref...)
		in.violations = append(in.violations, o.bad...)
		errs = append(errs, o.err)
		if traced {
			in.plain = append(in.plain, o.plain...)
			in.gated = append(in.gated, o.gated...)
		}
	}
	err := errors.Join(errs...)
	if err != nil && in.firstErr == nil {
		in.firstErr = err
	}
	return float64(len(lat)), lat, err
}

// checkReply is serve-train's per-reply correctness check; it returns the
// violation, or "" for a good reply. want is the id the request carried,
// minVersion its read gate and last the version the previous reply on the
// same connection came from.
func checkReply(rep serve.Reply, want, minVersion, last int64, classes int) string {
	switch {
	case rep.ID != want:
		return fmt.Sprintf("reply id %d for request %d", rep.ID, want)
	case len(rep.Output) != classes:
		return fmt.Sprintf("request %d: output width %d, want %d", want, len(rep.Output), classes)
	case rep.Version < minVersion:
		return fmt.Sprintf("request %d: version %d below the read gate %d", want, rep.Version, minVersion)
	case rep.Version < last:
		return fmt.Sprintf("request %d: version went back from %d to %d", want, last, rep.Version)
	}
	for _, v := range rep.Output {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Sprintf("request %d: output not finite", want)
		}
	}
	return ""
}

func (in *serveInstance) cancel() {
	for _, c := range in.clients {
		_ = c.conn.Close() // unblocks a client stuck in Do; close reports the rest
	}
}

func (in *serveInstance) close() error {
	close(in.stop)
	in.training.Wait()
	var errs []error
	for _, c := range in.clients {
		errs = append(errs, c.c.Close())
	}
	errs = append(errs, in.ln.Close())
	in.serving.Wait()
	in.srv.Close()
	return errors.Join(errs...)
}

func (in *serveInstance) fingerprint() []string { return nil }

func (in *serveInstance) verify(t *tally) {
	t.check(in.firstErr == nil, "serve-train: %v", in.firstErr)
	t.check(len(in.violations) == 0, "serve-train: %d bad replies, first: %v", len(in.violations), in.violations[:min(1, len(in.violations))])
	t.check(in.pub.Publishes() > 1, "serve-train: no snapshot was published while serving")
}

func (in *serveInstance) counters() serveCounters {
	s := in.srv.Stats()
	c := serveCounters{batches: float64(s.Batches), served: float64(s.Served), publishes: float64(s.Publishes)}
	if in.reg != nil {
		c.stalls = float64(in.reg.Snapshot().Counters["read_stalls"])
	}
	return c
}

func (in *serveInstance) layers(out map[string]float64, p *pass, _ *tally) {
	now := in.counters()
	in.mu.Lock()
	at, merges, late := in.mergeAt, in.mergeDur, in.late
	in.mu.Unlock()
	var trained float64 // seconds from the first merge after the warm-up to the last
	if len(at) > 1 {
		trained = at[len(at)-1] - at[0]
	}
	out["serve.p99_ms"] = 1e3 * quantile(in.plain, 0.99)
	out["serve.gated_p50_ms"] = 1e3 * median(in.gated)
	out["serve.merge_p50_us"] = 1e6 * median(merges)
	out["serve.merge_p99_us"] = 1e6 * quantile(merges, 0.99)
	out["serve.gen_late_p99_ms"] = 1e3 * quantile(late, 0.99)
	// The trainer also runs between segments, so its rates are over its
	// own span of time, not over the segments'.
	out["serve.merges_per_s"] = ratio(float64(len(at)-1), trained)
	out["serve.publishes_per_s"] = ratio(now.publishes-in.base.publishes, trained)
	out["serve.batches_per_req"] = ratio(now.batches-in.base.batches, now.served-in.base.served)
	out["serve.read_stalls"] = (now.stalls - in.base.stalls) / float64(len(p.segs))
}
