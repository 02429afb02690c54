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
	Output  []float32
}

// Config parameterizes a Server.
type Config struct {
	// WindowSeconds is the batching window: the first request entering an
	// empty queue arms a timer this far out, and everything queued when it
	// fires is served in one forward pass. 0 serves each arrival instantly
	// (batching only what raced in together).
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
	queue     []pendingReq // guarded by qmu
	scheduled bool         // guarded by qmu; a flush timer is armed
	closed    bool         // guarded by qmu

	fwdMu   sync.Mutex
	lastSeq int64 // guarded by fwdMu; snapshot seq materialized in model

	served  atomic.Int64
	batches atomic.Int64
}

// pendingReq is one queued request with its completion callback and
// enqueue time (for the latency the RequestServe event carries).
type pendingReq struct {
	req  Request
	enq  float64
	done func(Reply)
}

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

// Publisher returns the snapshot source the server reads from.
func (s *Server) Publisher() *Publisher { return s.pub }

// Submit enqueues one request; done runs with the reply once it has been
// served (possibly before Submit returns, when the request fills a batch).
// A request demanding a version beyond the published snapshot parks on the
// read gate and is enqueued by the publication that satisfies it.
func (s *Server) Submit(req Request, done func(Reply)) error {
	if len(req.Input) != s.inDim {
		return fmt.Errorf("serve: request %d: input width %d, model expects %d",
			req.ID, len(req.Input), s.inDim)
	}
	s.qmu.Lock()
	closed := s.closed
	s.qmu.Unlock()
	if closed {
		return fmt.Errorf("serve: request %d: server closed", req.ID)
	}
	now := s.clock.Now()
	cur := s.pub.Current()
	s.probe.RequestEnqueue(req.ID, req.MinVersion, cur.Version())
	pr := pendingReq{req: req, enq: now, done: done}
	if cur.Version() >= req.MinVersion {
		s.enqueue(pr)
		return nil
	}
	s.probe.ReadStallBegin(req.ID, req.MinVersion, cur.Version())
	s.pub.await(req.MinVersion, func() {
		s.probe.ReadStallEnd(req.ID, s.pub.Version(), s.clock.Now()-pr.enq)
		s.enqueue(pr)
	})
	return nil
}

// enqueue adds one admitted request to the batch queue and arranges the
// flush that will serve it.
func (s *Server) enqueue(pr pendingReq) {
	s.qmu.Lock()
	s.queue = append(s.queue, pr)
	depth := len(s.queue)
	arm := !s.scheduled
	if arm {
		s.scheduled = true
	}
	s.qmu.Unlock()
	if s.maxB > 0 && depth >= s.maxB {
		// Early flush clears `scheduled`; an already-armed timer fires on
		// an empty queue and no-ops.
		s.flush()
		return
	}
	if arm {
		s.clock.After(s.window, s.flush)
	}
}

// flush serves everything queued in one forward pass against the current
// snapshot. Every request in the batch is answered from that one snapshot
// — the atomic hot-swap only redirects requests enqueued later.
func (s *Server) flush() {
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.scheduled = false
	s.qmu.Unlock()
	if len(batch) == 0 {
		return
	}
	snap := s.pub.Current()
	s.fwdMu.Lock()
	if s.lastSeq != snap.Seq() {
		snap.Materialize(s.pub.part, s.model.Params())
		s.lastSeq = snap.Seq()
	}
	x := tensor.New(len(batch), s.inDim)
	for i, pr := range batch {
		copy(x.Row(i), pr.req.Input)
	}
	// The forward-only pass answers from buffers the next flush overwrites,
	// so the replies' copy is taken before the lock goes.
	out := s.infer.Forward(s.model, x).Clone()
	s.fwdMu.Unlock()
	s.batches.Add(1)
	now := s.clock.Now()
	for i, pr := range batch {
		s.served.Add(1)
		s.probe.RequestServe(pr.req.ID, snap.Version(), len(batch), now-pr.enq)
		pr.done(Reply{
			ID:      pr.req.ID,
			Version: snap.Version(),
			Seq:     snap.Seq(),
			Output:  out.Data[i*out.Cols : (i+1)*out.Cols : (i+1)*out.Cols],
		})
	}
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
