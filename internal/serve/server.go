package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/tensor"
)

// Request is one inference call: a feature vector and the staleness floor
// it demands. A request with MinVersion v is only ever answered from a
// snapshot whose version is ≥ v — the bounded-staleness read guarantee.
type Request struct {
	ID         int64
	MinVersion int64
	Input      []float32
}

// Reply is one answered request: the model output and the snapshot
// (version, publish sequence) that produced it. Every request in one batch
// carries the same version — a batch never mixes snapshots.
type Reply struct {
	ID      int64
	Version int64
	Seq     int64
	// Output is a view of the batch's pooled output memory, valid only
	// until the done callback it was passed to returns; copy it to keep it.
	Output []float32
}

// Config parameterizes a Server.
type Config struct {
	// WindowSeconds is the batching window: the first request entering an
	// empty queue arms a timer this far out, and everything queued when it
	// fires is served in one forward pass. At 0 a request admitted by Submit
	// is served on the goroutine that submitted it, with whatever raced in
	// beside it; requests the read gate releases still wait for a flush the
	// Clock runs (or for MaxBatch), so one publication's releases form one
	// batch.
	WindowSeconds float64
	// MaxBatch flushes early when the queue reaches this depth (0 = no
	// cap; the window alone decides).
	MaxBatch int
	// Clock supplies time; required.
	Clock Clock
	// Probe, when set, traces RequestEnqueue/RequestServe and the
	// ReadStall pair per gated request.
	Probe *obs.Probe
}

// Server answers inference requests from the Publisher's snapshots. It
// coalesces concurrent calls into one forward pass per snapshot (the
// batcher), and parks requests whose staleness floor outruns the published
// version on the publisher's read gate until a fresh-enough snapshot lands.
//
// Submit is safe for concurrent use when the injected Clock is; the
// scratch replica behind the forward pass is serialized by fwdMu.
type Server struct {
	pub    *Publisher
	model  *nn.Sequential // scratch replica; guarded by fwdMu
	infer  nn.Inference   // the forward pass's reused activations; guarded by fwdMu
	inDim  int
	window float64
	maxB   int
	clock  Clock
	probe  *obs.Probe

	qmu       sync.Mutex
	queue     *flushBuf // guarded by qmu; nil while no request is queued
	scheduled bool      // guarded by qmu; a flush timer is armed
	closed    bool      // guarded by qmu

	fwdMu   sync.Mutex
	lastSeq int64 // guarded by fwdMu; snapshot seq materialized in model

	served  atomic.Int64
	batches atomic.Int64
}

// pendingReq is one queued request with its completion callback and
// enqueue time (for the latency the RequestServe event carries); its
// features are its row of the flush buffer's input.
type pendingReq struct {
	id   int64
	enq  float64
	done func(Reply)
}

// flushBuf is the queue and the memory its flush runs in: enqueueing a
// request appends its features to x as the next row, the forward pass reads
// x, and flush copies the logits into out. Buffers are pooled, so a steady
// stream of flushes allocates nothing.
type flushBuf struct {
	reqs []pendingReq
	x    tensor.Matrix // x.Data is the feature slab, one row per request
	out  []float32
}

var flushBufs = sync.Pool{New: func() any { return new(flushBuf) }}

// NewServer builds a server over pub. model is a scratch replica of the
// served architecture — the server materializes snapshots into it, so the
// caller must not use it elsewhere. inDim is the expected feature width;
// Submit rejects inputs of any other length before they can reach the
// forward pass.
func NewServer(pub *Publisher, model *nn.Sequential, inDim int, cfg Config) *Server {
	return &Server{
		pub:    pub,
		model:  model,
		inDim:  inDim,
		window: cfg.WindowSeconds,
		maxB:   cfg.MaxBatch,
		clock:  cfg.Clock,
		probe:  cfg.Probe,
	}
}

// Submit enqueues one request; done runs with the reply once it has been
// served (possibly before Submit returns: at window 0, or when the request
// fills a batch). A request demanding a version beyond the published
// snapshot parks on the read gate and is enqueued by the publication that
// satisfies it. Submit does not retain req.Input after it returns.
func (s *Server) Submit(req Request, done func(Reply)) error {
	if len(req.Input) != s.inDim {
		return fmt.Errorf("serve: request %d: input width %d, model expects %d",
			req.ID, len(req.Input), s.inDim)
	}
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return fmt.Errorf("serve: request %d: server closed", req.ID)
	}
	now := s.clock.Now()
	cur := s.pub.Version()
	s.probe.RequestEnqueue(req.ID, req.MinVersion, cur)
	if cur >= req.MinVersion {
		// The closed check and the append share one critical section, so
		// Close's final flush serves every request it did not reject.
		flush, arm := s.pushLocked(req.ID, req.Input, now, done, s.window == 0)
		s.qmu.Unlock()
		s.schedule(flush, arm)
		return nil
	}
	s.qmu.Unlock()
	// The gate may release the request long after Submit returns: it keeps
	// its own copy of the features.
	input := append([]float32(nil), req.Input...)
	s.probe.ReadStallBegin(req.ID, req.MinVersion, cur)
	s.pub.await(req.MinVersion, func() {
		s.probe.ReadStallEnd(req.ID, s.pub.Version(), s.clock.Now()-now)
		// This runs inside the training merge that published, under a
		// stateShard lock: unless the request fills a batch, the forward
		// pass is left to a flush the Clock runs, which also serves what the
		// same publication releases as one batch.
		s.qmu.Lock()
		flush, arm := s.pushLocked(req.ID, input, now, done, false)
		s.qmu.Unlock()
		s.schedule(flush, arm)
	})
	return nil
}

// pushLocked appends one admitted request to the queue and reports how the
// flush that serves it is arranged: run at once (the request fills a batch,
// or now is set), or on the window's timer, which arm says to start.
func (s *Server) pushLocked(id int64, input []float32, enq float64, done func(Reply), now bool) (flush, arm bool) {
	if s.queue == nil {
		s.queue = flushBufs.Get().(*flushBuf)
	}
	b := s.queue
	b.reqs = append(b.reqs, pendingReq{id: id, enq: enq, done: done})
	b.x.Data = append(b.x.Data, input...)
	if now || s.maxB > 0 && len(b.reqs) >= s.maxB {
		// The flush clears `scheduled`; an already-armed timer fires on an
		// empty queue and no-ops.
		return true, false
	}
	arm = !s.scheduled
	s.scheduled = true
	return false, arm
}

// schedule carries out what pushLocked asked for, with qmu released.
func (s *Server) schedule(flush, arm bool) {
	if flush {
		s.flush()
	} else if arm {
		s.clock.After(s.window, s.flush)
	}
}

// flush serves everything queued in one forward pass against the current
// snapshot. Every request in the batch is answered from that one snapshot
// — the atomic hot-swap only redirects requests enqueued later.
func (s *Server) flush() {
	s.qmu.Lock()
	b := s.queue
	s.queue = nil
	s.scheduled = false
	s.qmu.Unlock()
	if b == nil {
		return
	}
	n := len(b.reqs)
	snap := s.pub.Current()
	s.fwdMu.Lock()
	if s.lastSeq != snap.Seq() {
		snap.Materialize(s.pub.part, s.model.Params())
		s.lastSeq = snap.Seq()
	}
	b.x.Rows, b.x.Cols = n, s.inDim
	// The forward-only pass answers from buffers the next flush overwrites,
	// so the replies' copy is taken before the lock goes.
	y := s.infer.Forward(s.model, &b.x)
	b.out = append(b.out[:0], y.Data...)
	cols := y.Cols
	s.fwdMu.Unlock()
	s.batches.Add(1)
	now := s.clock.Now()
	for i, pr := range b.reqs {
		s.served.Add(1)
		s.probe.RequestServe(pr.id, snap.Version(), n, now-pr.enq)
		pr.done(Reply{
			ID:      pr.id,
			Version: snap.Version(),
			Seq:     snap.Seq(),
			Output:  b.out[i*cols : (i+1)*cols : (i+1)*cols],
		})
	}
	clear(b.reqs)
	b.reqs, b.x.Data = b.reqs[:0], b.x.Data[:0]
	flushBufs.Put(b)
}

// Close rejects future submits and serves whatever is already queued.
// Requests still parked on the read gate stay parked — their ReadStall
// intervals are legitimately left open, like a training run halting
// mid-stall.
func (s *Server) Close() {
	s.qmu.Lock()
	s.closed = true
	s.qmu.Unlock()
	s.flush()
}

// Stats is a point-in-time server counter snapshot.
type Stats struct {
	Served    int64 // requests answered
	Batches   int64 // forward passes run
	Publishes int64 // snapshots published (including the initial one)
	Parked    int   // requests currently waiting on the read gate
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	return Stats{
		Served:    s.served.Load(),
		Batches:   s.batches.Load(),
		Publishes: s.pub.Publishes(),
		Parked:    s.pub.Parked(),
	}
}
