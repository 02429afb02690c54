package livenet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"rog/internal/atp"
	"rog/internal/durable"
	"rog/internal/engine"
	"rog/internal/metrics"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/transport"
)

// ServerConfig parameterizes the parameter server.
type ServerConfig struct {
	Workers   int
	Threshold int
	Coeff     atp.Coefficients
	// Shards splits the server state into this many contiguous unit-range
	// shards, each behind its own lock, so pushes landing on different
	// ranges merge in parallel (clamped to [1, NumUnits]; 0 means 1 — the
	// historical single-lock server, which shard 1 reproduces bit-for-bit).
	Shards int
	// Policy overrides the synchronization policy (any engine registry
	// entry). nil selects ROG built from Workers/Threshold/Coeff — the
	// paper's system and the historical default of this package.
	Policy engine.Policy
	// MTAFloorSeconds lower-bounds the transmission budget so that a cold
	// start or a microsecond in-process pipe never collapses it to zero.
	MTAFloorSeconds float64
	// IdleTimeout detaches a worker whose connection has produced no frame
	// for this long — the silent-stall case where the radio association
	// lingers but the robot is gone. 0 disables stall detection; a vanished
	// worker is then detached only when its connection errors out.
	IdleTimeout time.Duration
	// OnMerge, when set, observes every row merged into the server state
	// (worker, unit, stamped version) — instrumentation for the
	// simnet↔livenet parity tests. It joins the state's observer chain as a
	// filter on merges, under that contract (engine.State.Observe).
	OnMerge func(worker, unit int, iter int64)
	// Trace, when set, receives structured events for every merge, gate
	// stall and membership change, timestamped in seconds since NewServer.
	Trace obs.Tracer
	// Metrics, when set, accumulates the server-side runtime counters
	// (rows merged, staleness histogram, gate blocks, stall seconds, …).
	Metrics *obs.Registry
	// DebugAddr, when non-empty, serves the Metrics snapshot as JSON over
	// HTTP on this listen address ("127.0.0.1:0" picks a free port; see
	// DebugAddr() for the bound address), with net/http/pprof mounted under
	// /debug/pprof/ on the same listener. Empty disables the endpoint.
	DebugAddr string
	// Durable, when set, makes the server crash-consistent: every state
	// transition is journaled to the store's WAL, Checkpoint() rotates full
	// snapshots, and a NewServer over a store that already holds state
	// recovers it (latest valid snapshot + WAL replay) instead of starting
	// fresh — the recovery epoch then increments and reaches every
	// reconnecting worker in its resync-done frame.
	Durable *durable.Store
}

// DisconnectReason classifies why a worker's connection ended.
type DisconnectReason int

const (
	// DisconnectClean is an orderly shutdown: the peer closed the
	// connection and the stream ended at a frame boundary.
	DisconnectClean DisconnectReason = iota
	// DisconnectError is an abrupt failure: reset, protocol violation, or
	// a mid-frame break.
	DisconnectError
	// DisconnectStall is a silent stall: the link stayed up but no frame
	// arrived within IdleTimeout.
	DisconnectStall
)

// String names the reason.
func (r DisconnectReason) String() string {
	switch r {
	case DisconnectClean:
		return "clean close"
	case DisconnectError:
		return "connection error"
	case DisconnectStall:
		return "silent stall"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Server is the live parameter server: the socket Runtime that executes an
// engine policy (Algo. 2 over real connections). It holds no model — the
// shared engine.State carries the per-worker averaged-gradient copies, row
// versions, MTA-time tracker and churn counters; this type owns transport,
// framing, locking and membership detection. One goroutine per worker
// calls HandleConn.
//
// Membership: a worker whose connection ends — cleanly, abruptly, or by
// silent stall — is detached: its rows stop holding back the RSP minimum,
// so the survivors keep training with gradient averaging re-normalized to
// the remaining team. A later HandleConn for the same worker re-attaches
// it: the server first replays every averaged row that accumulated while
// the worker was away (the rejoin resync), so the returning robot catches
// up without violating the staleness bound.
type Server struct {
	cfg   ServerConfig
	part  *rowsync.Partition
	probe *obs.Probe   // nil when tracing and metrics are both off
	debug net.Listener // nil unless cfg.DebugAddr was set

	// Lock order: mu → state's internal locks (State.mu → shard.mu,
	// ascending) → the durable store's. The merge path never takes mu at
	// all — rows batch per push and land through Peer.MergeBatch under the
	// owning shard locks only; mu guards the residue below plus the gate
	// condition variable.
	mu    sync.Mutex
	cond  *sync.Cond    // signals on mu; set once in NewServer
	state *engine.State // internally locked; the pointer itself is set once in NewServer
	// peers[w] is worker w's server half (engine.Peer); the slice is set once
	// in NewServer. Each Peer's fields name their own guard: the push-plan
	// seq belongs to w's handler goroutine, which counts and merges a push
	// without mu; the pull in flight and the gate's stall edge are touched
	// only with mu held.
	peers       []*engine.Peer
	closed      bool  // guarded by mu
	detachEpoch int64 // guarded by mu — bumped on every detach; attributes wait time to churn
}

// NewServer creates a server for a model decomposed by part. It returns an
// error for configurations that cannot train (fewer than 2 workers, a
// staleness threshold below 2 when the default ROG policy is selected).
func NewServer(part *rowsync.Partition, cfg ServerConfig) (*Server, error) {
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("livenet: need at least 2 workers, got %d", cfg.Workers)
	}
	if cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("livenet: negative idle timeout %v", cfg.IdleTimeout)
	}
	if cfg.Coeff == (atp.Coefficients{}) {
		cfg.Coeff = atp.DefaultCoefficients()
	}
	if cfg.MTAFloorSeconds <= 0 {
		cfg.MTAFloorSeconds = 2 * time.Millisecond.Seconds()
	}
	if cfg.Policy == nil {
		if cfg.Threshold < 2 {
			return nil, fmt.Errorf("livenet: threshold must be >= 2, got %d", cfg.Threshold)
		}
		pol, err := defaultPolicy(part, cfg.Workers, cfg.Threshold, cfg.Coeff)
		if err != nil {
			return nil, err
		}
		cfg.Policy = pol
	}
	s := &Server{
		cfg:   cfg,
		part:  part,
		state: engine.NewStateSharded(cfg.Policy, part, cfg.Workers, cfg.MTAFloorSeconds, cfg.Shards),
	}
	if cfg.Durable != nil {
		if cfg.Durable.HasState() {
			// A previous server incarnation left durable state behind:
			// recover it instead of training from scratch. No worker is
			// connected to this fresh process, so every recovered-active
			// worker is detached — the first HandleConn for each re-attaches
			// it through the ordinary rejoin resync, which re-baselines its
			// rows and dedupes any pre-crash push it retransmits.
			rec, _, err := cfg.Durable.RecoverSharded(cfg.Policy, part, cfg.Workers, cfg.MTAFloorSeconds, cfg.Shards)
			if err != nil {
				return nil, fmt.Errorf("livenet: recover checkpoint store: %w", err)
			}
			for w := 0; w < cfg.Workers; w++ {
				if rec.Versions.IsActive(w) {
					rec.Detach(w)
				}
			}
			s.state = rec
		} else if err := cfg.Durable.Begin(s.state, nil); err != nil {
			return nil, fmt.Errorf("livenet: begin checkpoint store: %w", err)
		}
	}
	if cfg.OnMerge != nil {
		s.state.Observe(engine.Merges(cfg.OnMerge))
	}
	// Event timestamps are seconds since server start: monotone (time.Since
	// uses the monotonic clock) and comparable to the simnet's virtual-time
	// origin, so the same aggregation reads both.
	t0 := time.Now()
	s.probe = obs.NewProbe(cfg.Trace, cfg.Metrics, func() float64 { return time.Since(t0).Seconds() })
	s.state.Probe = s.probe
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.peers = append(s.peers, engine.NewPeer(i, part))
	}
	if cfg.DebugAddr != "" {
		ln, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			return nil, fmt.Errorf("livenet: debug endpoint: %w", err)
		}
		s.debug = ln
		mux := http.NewServeMux()
		mux.Handle("/", obs.DebugHandler(cfg.Metrics))
		// Explicit mounts rather than the DefaultServeMux side effect, so
		// pprof is exposed only here.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			// Serve returns when Close tears the listener down; that exit
			// path is the expected shutdown, not an error to surface.
			_ = http.Serve(ln, mux)
		}()
	}
	return s, nil
}

// defaultPolicy is the policy a server or worker configured without one
// executes: ROG, the paper's system.
func defaultPolicy(part *rowsync.Partition, workers, threshold int, coeff atp.Coefficients) (engine.Policy, error) {
	return engine.New("rog", engine.Params{Workers: workers, Threshold: threshold, NumUnits: part.NumUnits(), Coeff: coeff})
}

// DebugAddr reports the bound address of the metrics debug endpoint, or ""
// when cfg.DebugAddr was empty.
func (s *Server) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr().String()
}

// Close wakes any goroutine blocked on the staleness condition so handlers
// can drain after their peers disconnect.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.debug != nil {
		_ = s.debug.Close() // shutting down; a close error leaves nothing to recover
	}
}

// Epoch reports the server's recovery epoch: 0 for a fresh (or volatile)
// server, incremented by every recovery from the checkpoint store.
func (s *Server) Epoch() uint64 {
	if s.cfg.Durable == nil {
		return 0
	}
	return s.cfg.Durable.Epoch()
}

// Checkpoint rotates a full snapshot of the server state into the
// checkpoint store (and truncates the WAL). Callers own the cadence — a
// timer, an iteration count, or a signal handler.
func (s *Server) Checkpoint() error {
	if s.cfg.Durable == nil {
		return fmt.Errorf("livenet: no checkpoint store configured")
	}
	// Quiesce the whole state for the snapshot-encode + WAL-rotate pair:
	// with the merge path no longer under s.mu, the shard locks are the
	// only barrier against a merge journaling into a WAL that is being
	// retired.
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	s.state.WithAllLocked(func() {
		err = s.cfg.Durable.Checkpoint(s.state, nil)
	})
	return err
}

// MaxStalenessObserved reports the largest version lead any merge stamped
// over the run (for tests: it must never exceed the threshold).
func (s *Server) MaxStalenessObserved() int64 {
	return s.state.MaxLeadObserved()
}

// ActiveWorkers reports how many workers are currently attached.
func (s *Server) ActiveWorkers() int {
	return s.state.ActiveWorkers()
}

// Churn returns a snapshot of the membership-churn counters.
func (s *Server) Churn() metrics.ChurnStats {
	return s.state.ChurnSnapshot()
}

// State exposes the engine state so sidecars can observe its transitions —
// the serving tier's Publisher registers through State().Observe. The
// pointer is set once in NewServer and internally locked; register before
// the first HandleConn.
func (s *Server) State() *engine.State {
	return s.state
}

// HandleConn serves one worker's connection until it ends. It processes
// pushes (Algo. 2 lines 1–6), enforces the policy's staleness gate (lines
// 7–9), and answers each iteration with the policy's pull plan (lines
// 10–13). If the worker was previously detached, it is re-attached first:
// the server replays all averaged rows accumulated during the absence, then
// resumes the normal protocol. Whatever way the connection ends — clean
// close, abrupt error, or silent stall past IdleTimeout — the worker is
// detached on exit, so the gate never waits on a ghost. Callers must not
// run two handlers for the same worker concurrently.
func (s *Server) HandleConn(worker int, conn net.Conn) error {
	if worker < 0 || worker >= s.cfg.Workers {
		return fmt.Errorf("livenet: worker %d out of range [0,%d)", worker, s.cfg.Workers)
	}
	// Every frame this connection sends — resync, pulls, control — is built
	// in one buffer that grows to the largest plan and is then reused.
	var out transport.Batch
	if err := s.attach(worker, conn, &out); err != nil {
		s.detach(worker, "resync failure")
		return err
	}
	reason, err := s.serve(worker, conn, &out)
	s.detach(worker, reason.String())
	if reason == DisconnectStall {
		// Kill the stalled connection so a zombie peer cannot hold the
		// socket (and so a late write on its end fails fast).
		conn.Close() //roglint:ignore errdrop best-effort kill of a zombie peer; there is no recovery from a failed close
	}
	return err
}

// pushBatch buffers one in-flight push's rows between the first kindRow
// frame and the pushDone that closes it, so the whole push merges with one
// shard-lock acquisition per contiguous run instead of one lock per row.
// The rows are decoded into one arena the connection reuses for every push:
// the merge only borrows vals (engine.Transition.Vals).
type pushBatch struct {
	iter  int64 // the stamp every buffered row carries
	units []int
	vals  [][]float32
	arena []float32
}

// bufferRow decodes one received row into the batch. In the strict
// request-response protocol a push's rows all carry one stamp; a row that
// carries another flushes what is buffered first, which keeps a malformed
// interleaving correct rather than fast.
func (s *Server) bufferRow(worker int, b *pushBatch, msg parsed) error {
	if msg.iter != b.iter {
		s.flushPush(worker, b)
		b.iter = msg.iter
	}
	if cap(b.arena)-len(b.arena) < msg.payload.N {
		// Rows already decoded keep the array they are in; the push
		// continues in a larger one, which the next push starts from.
		b.arena = make([]float32, 0, max(2*cap(b.arena), s.part.MaxUnitLen()))
	}
	vals, err := decodeRow(s.part, msg.payload, b.arena[len(b.arena):cap(b.arena)])
	if err != nil {
		return err
	}
	b.arena = b.arena[:len(b.arena)+len(vals)]
	b.units = append(b.units, msg.payload.Row)
	b.vals = append(b.vals, vals)
	return nil
}

// flushPush merges the buffered rows in arrival order.
func (s *Server) flushPush(worker int, b *pushBatch) {
	s.state.MergeBatch(worker, b.units, b.vals, b.iter)
	b.units, b.vals, b.arena = b.units[:0], b.vals[:0], b.arena[:0]
}

// serve is the receive loop; it reports how the connection ended.
func (s *Server) serve(worker int, conn net.Conn, out *transport.Batch) (DisconnectReason, error) {
	rc := transport.NewReceiver(conn)
	var batch pushBatch
	// A connection that dies mid-push still merges what arrived — the
	// partial-push mass lands before the detach folds state, exactly as
	// the per-row merge path used to guarantee.
	defer s.flushPush(worker, &batch)
	for {
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
				return DisconnectError, fmt.Errorf("livenet: worker %d: %w", worker, err)
			}
		}
		frame, err := rc.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// The peer closed the stream at a frame boundary.
				return DisconnectClean, nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return DisconnectStall, fmt.Errorf(
					"livenet: worker %d stalled: no frame within %v", worker, s.cfg.IdleTimeout)
			}
			return DisconnectError, fmt.Errorf("livenet: worker %d receive: %w", worker, err)
		}
		msg, err := parse(frame)
		if err != nil {
			return DisconnectError, fmt.Errorf("livenet: worker %d: %w", worker, err)
		}
		switch msg.kind {
		case kindRow:
			// Decode outside any lock; the row merges at pushDone (or at
			// connection end) through the batched per-shard path.
			if err := s.bufferRow(worker, &batch, msg); err != nil {
				return DisconnectError, fmt.Errorf("livenet: worker %d: %w", worker, err)
			}
		case kindPushDone:
			// The engine.Peer sequence over sockets.
			peer, n := s.peers[worker], msg.iter
			s.flushPush(worker, &batch)
			peer.PushDone(s.state, n, msg.mta, msg.elapsed, msg.spec)
			s.mu.Lock()
			// The flushed merges may release other workers' parked gates.
			s.cond.Broadcast()
			// The wait: serve the pull only when the gate lets the worker
			// advance past iteration n. Min() spans attached workers only, so a
			// departed teammate cannot park this loop forever; the wait time a
			// detach releases is accounted as churn-attributable stall.
			epoch, waitStart := s.detachEpoch, time.Now()
			for !s.closed && !peer.Gate(s.state, n, time.Since(waitStart).Seconds()) {
				s.cond.Wait()
			}
			if s.detachEpoch != epoch {
				s.state.AddDetachStall(time.Since(waitStart).Seconds())
			}
			// The pull's rows leave the server copy now, at plan time; the
			// carry frames them in plan order and sends outside the lock.
			plan := peer.HoldPull(s.state, n)
			out.Reset()
			for _, u := range plan.Units {
				out.End(pullMsg(out.Begin(), peer.Held(u)))
			}
			budget, min := s.budgetFloored(), s.state.Versions.Min()
			s.mu.Unlock()
			if err := s.sendPull(worker, conn, out, plan, budget, min); err != nil {
				return DisconnectError, fmt.Errorf("livenet: worker %d pull send: %w", worker, err)
			}
		default:
			return DisconnectError, fmt.Errorf("livenet: worker %d sent server-bound frame %q", worker, msg.kind)
		}
	}
}

// detach removes the worker from membership: its rows stop pinning the
// minimum and every parked handler re-evaluates its wait. Idempotent.
// cause labels the Detach trace event (a DisconnectReason string or an
// attach-failure tag).
func (s *Server) detach(worker int, cause string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.state.IsActive(worker) {
		return
	}
	s.peers[worker].Leave(s.state)
	s.probe.Detach(worker, s.state.Versions.Min(), cause)
	s.detachEpoch++
	// Pull rows cut off mid-flight are still held; fold their mass back
	// into the accumulator so nothing is lost across the disconnect.
	s.peers[worker].Settle(s.state, nil)
	s.cond.Broadcast()
}

// attach re-admits a previously detached worker (engine.Peer.Rejoin): its
// versions are re-baselined, so its next push cannot violate monotonicity or
// the staleness bound, and every averaged row accumulated during the absence
// is replayed over conn (no deadline — the rejoin resync must complete). For
// a worker that was never detached this is a no-op.
func (s *Server) attach(worker int, conn net.Conn, out *transport.Batch) error {
	if s.state.IsActive(worker) {
		return nil
	}
	// The backlog is encoded atomically with its drain (no concurrent merge
	// can slip mass in between the copy leaving and the zero); send outside
	// every lock.
	s.mu.Lock()
	baseline, payloads := s.peers[worker].Rejoin(s.state)
	out.Reset()
	var resyncBytes float64
	for _, p := range payloads {
		buf := out.Begin()
		body := len(buf)
		buf = pullMsg(buf, p)
		resyncBytes += float64(len(buf) - body)
		out.End(buf)
	}
	s.probe.Resync(worker, len(payloads), resyncBytes)
	out.End(resyncDoneMsg(out.Begin(), baseline, s.budgetFloored(), s.state.Versions.Min(), s.Epoch()))
	s.cond.Broadcast() // the rejoined rows may re-gate or release waiters
	s.mu.Unlock()

	// The backlog and the resync-done that ends it leave in one write.
	if sent, err := out.Send(conn, 0, out.Len(), time.Time{}); err != nil {
		// Conserve the undelivered mass; the next attach replays it.
		s.mu.Lock()
		s.peers[worker].Restore(s.state, payloads[min(sent, len(payloads)):]...)
		s.mu.Unlock()
		return fmt.Errorf("livenet: worker %d resync: %w", worker, err)
	}
	return nil
}

// budgetFloored is the MTA-time budget clamped to the configured floor.
func (s *Server) budgetFloored() float64 {
	budget := s.state.Budget()
	if budget < s.cfg.MTAFloorSeconds {
		budget = s.cfg.MTAFloorSeconds
	}
	return budget
}

// sendPlanned is the socket form of Algo. 4's speculative transmission,
// shared by pushes and pulls: the plan's frames, one per planned unit in b,
// go out in one write — under a budget-seconds deadline when the plan is
// speculative, with none for whole-model plans — and if the deadline cuts
// the send short of the plan's first must frames (the MTA floor and rows at
// the staleness bound), those are completed regardless. It returns how many
// frames went out whole; the deadline cut itself is the expected outcome,
// not an error.
func sendPlanned(conn net.Conn, b *transport.Batch, must int, speculative bool, budget float64) (int, error) {
	deadline := time.Time{}
	if speculative {
		deadline = time.Now().Add(time.Duration(budget * float64(time.Second)))
	}
	sent, err := b.Send(conn, 0, b.Len(), deadline)
	if err == transport.ErrTimeout {
		err = nil
	}
	if err == nil && sent < must {
		sent, err = b.Send(conn, sent, must, time.Time{})
	}
	return sent, err
}

// sendAll sends every frame of b, with no deadline.
func sendAll(conn net.Conn, b *transport.Batch) error {
	_, err := b.Send(conn, 0, b.Len(), time.Time{})
	return err
}

// sendPull transmits the planned rows framed in out (see sendPlanned). Rows
// cut off by the deadline — or stranded by a connection failure — are
// restored to the worker's accumulator (mass conserved) and ride a later
// pull or the rejoin resync. The pull-done control frame follows on
// success, carrying the budget and the global minimum row version for the
// worker's next push.
func (s *Server) sendPull(worker int, conn net.Conn, out *transport.Batch, plan engine.Plan, budget float64, min int64) error {
	sent, err := sendPlanned(conn, out, plan.Must, plan.Speculative, budget)
	s.mu.Lock()
	s.peers[worker].Settle(s.state, plan.Units[:sent])
	s.mu.Unlock()
	if err != nil {
		return err
	}
	out.Reset()
	out.End(pullDoneMsg(out.Begin(), budget, min))
	return sendAll(conn, out)
}
