package livenet

import (
	"fmt"
	"net"
	"time"

	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/transport"
)

// WorkerConfig parameterizes one live worker.
type WorkerConfig struct {
	ID        int
	Workers   int // team size; defaults to ID+1 (only per-worker policy state needs it)
	Threshold int
	// Policy overrides the synchronization policy. nil selects ROG built
	// from Workers/Threshold. Must decide like the server's policy —
	// the pair executes one strategy split across the wire.
	Policy   engine.Policy
	LR       float64
	Momentum float64
	// Trace, when set, receives the worker-side event stream (iteration
	// spans, push plans, rows sent), timestamped in seconds since NewWorker.
	Trace obs.Tracer
	// Metrics, when set, accumulates worker-side runtime counters.
	Metrics *obs.Registry
}

// Worker is the live client (Algo. 1 over a real connection): the socket
// Runtime's worker half. It accumulates locally computed gradients per row,
// transmits whatever its policy plans — speculatively under the
// server-distributed MTA budget when the plan says so — and applies
// whatever averaged rows the pull delivers.
type Worker struct {
	cfg  WorkerConfig
	part *rowsync.Partition
	rep  *engine.Replica // model, optimizer, local accumulator, push stamps, uplink codec

	conn  net.Conn
	rc    *transport.Receiver
	out   transport.Batch // every frame this worker sends is built here
	probe *obs.Probe      // nil when tracing and metrics are both off

	payloads []compress.Payload // the push in flight, in plan order
	vals     []float32          // one pulled row, decoded

	iter   int64
	budget float64 // MTA-time budget from the server's last pull-done
	minVer int64   // global minimum row version, from the last pull-done
	epoch  uint64  // server recovery epoch, from the last resync-done
}

// NewWorker wires a worker to its model and server connection.
func NewWorker(model *nn.Sequential, part *rowsync.Partition, conn net.Conn, cfg WorkerConfig) *Worker {
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Workers <= cfg.ID {
		cfg.Workers = cfg.ID + 1
	}
	if cfg.Policy == nil {
		pol, err := defaultPolicy(part, cfg.Workers, cfg.Threshold)
		if err != nil {
			panic(err) // unreachable: "rog" is always registered
		}
		cfg.Policy = pol
	}
	t0 := time.Now()
	return &Worker{
		cfg:    cfg,
		part:   part,
		probe:  obs.NewProbe(cfg.Trace, cfg.Metrics, func() float64 { return time.Since(t0).Seconds() }),
		rep:    engine.NewReplica(model, part, cfg.LR, cfg.Momentum),
		conn:   conn,
		rc:     transport.NewReceiver(conn),
		vals:   make([]float32, part.MaxUnitLen()),
		budget: 2 * time.Millisecond.Seconds(),
	}
}

// Iterations returns the number of completed iterations.
func (w *Worker) Iterations() int64 { return w.iter }

// Epoch reports the server recovery epoch the worker last resynced
// against: 0 until a rejoin, then whatever the resync-done frame carried —
// so it advances exactly when the worker rode out a server restart.
func (w *Worker) Epoch() uint64 { return w.epoch }

// RunIteration performs one training iteration: computeGradients must run
// the forward/backward pass on the worker's model (filling its gradient
// matrices); the worker then pushes what its policy plans, waits for the
// averaged pull and applies it. A policy may skip the synchronization
// entirely (FLOWN's scheduler); the local gradients then keep accumulating
// and ride the next planned push.
func (w *Worker) RunIteration(computeGradients func()) error {
	w.iter++
	n := w.iter
	w.probe.IterStart(w.cfg.ID, n)
	iterStart := time.Now()
	computeGradients()
	w.rep.Accumulate()
	compute := time.Since(iterStart).Seconds()

	commStart := time.Now()
	skipped, err := w.push(n)
	if err != nil {
		return err
	}
	if !skipped {
		if err := w.pull(); err != nil {
			return err
		}
	}
	// The worker cannot split the server's gate wait out of the pull
	// round-trip, so comm here includes any staleness stall spent on the
	// server side; the stall residual only covers local scheduling slack.
	comm := time.Since(commStart).Seconds()
	stall := time.Since(iterStart).Seconds() - compute - comm
	if stall < 0 {
		stall = 0
	}
	w.probe.IterEnd(w.cfg.ID, n, compute, comm, stall)
	return nil
}

// push implements Algo. 1 PushGradients: the policy plans the transmission
// (rank, forced rows, MTA floor — Algo. 3/4 for ROG), the worker sends it —
// under the budget deadline when the plan is speculative, completing the
// first plan.Must rows regardless — and reports the measured MTA time.
// It reports skipped=true when the policy sat this iteration out.
func (w *Worker) push(n int64) (skipped bool, err error) {
	numUnits := w.part.NumUnits()
	plan := w.cfg.Policy.PlanPush(w.rep.PushView(w.cfg.ID, n, w.minVer, w.budget))
	if plan.Skip {
		w.probe.PushPlanned(w.cfg.ID, n, 0, 0, numUnits, 0, false, "skip")
		return true, nil
	}
	must := plan.Must
	if must > len(plan.Units) {
		must = len(plan.Units)
	}
	ap := atp.NewPlan(plan.Units, func(u int) float64 { return float64(w.part.WireSize(u)) })
	w.probe.ObservePlan(len(ap.Units), ap.TotalBytes())
	w.probe.PushPlanned(w.cfg.ID, n, len(ap.Units), must,
		numUnits-len(ap.Units), ap.TotalBytes(), plan.Speculative, "")

	w.out.Reset()
	w.payloads = w.payloads[:0]
	for _, u := range plan.Units {
		p := w.rep.EncodeUnit(u)
		w.payloads = append(w.payloads, p)
		w.out.End(rowMsg(w.out.Begin(), n, p))
	}

	start := time.Now()
	sent, sendErr := sendPlanned(w.conn, &w.out, must, plan.Speculative, w.budget)
	elapsed := time.Since(start).Seconds()
	w.probe.RowsSent(w.cfg.ID, n, obs.DirPush, sent, ap.Prefix[sent], elapsed, plan.Speculative)
	mtaTime := elapsed
	if sent > must && ap.Prefix[sent] > 0 {
		// Everything (or more than the floor) fit in the budget: the floor's
		// share of the measured time, weighted by actual bytes on the wire.
		mtaTime = elapsed * ap.Prefix[must] / ap.Prefix[sent]
	}
	// Bookkeeping: delivered rows are version-stamped; undelivered rows get
	// their mass back (the partial frame at the cut was discarded by the
	// receiver's resync). This runs even when the connection broke, so a
	// push interrupted by a crash conserves the gradient mass for the push
	// after the worker reconnects.
	for i, u := range plan.Units {
		if i < sent {
			w.rep.Stamp(u, n)
		} else {
			w.rep.Restore(w.payloads[i])
		}
	}
	if sendErr != nil {
		return false, fmt.Errorf("livenet: worker %d push: %w", w.cfg.ID, sendErr)
	}
	w.cfg.Policy.ObservePush(w.cfg.ID, n, elapsed)
	w.out.Reset()
	w.out.End(pushDoneMsg(w.out.Begin(), n, mtaTime, elapsed, plan.Speculative))
	return false, sendAll(w.conn, &w.out)
}

// recvAveraged applies averaged rows to the model (Algo. 1
// PullAveragedGradients) until the control frame of kind done arrives, and
// returns that frame after refreshing the worker's view of the MTA budget
// and the global minimum row version its next push plan sees. phase names
// the exchange in errors.
func (w *Worker) recvAveraged(phase string, done byte) (parsed, error) {
	for {
		frame, err := w.rc.Recv()
		if err != nil {
			return parsed{}, fmt.Errorf("livenet: worker %d %s: %w", w.cfg.ID, phase, err)
		}
		msg, err := parse(frame)
		if err != nil {
			return parsed{}, err
		}
		switch msg.kind {
		case kindPull:
			vals, err := decodeRow(w.part, msg.payload, w.vals)
			if err != nil {
				return parsed{}, err
			}
			w.rep.Apply(msg.payload.Row, vals)
		case done:
			if msg.budget > 0 {
				w.budget = msg.budget
			}
			w.minVer = msg.min
			return msg, nil
		default:
			return parsed{}, fmt.Errorf("livenet: worker %d got frame %q during %s", w.cfg.ID, msg.kind, phase)
		}
	}
}

// pull consumes the averaged rows that answer a push, up to the pull-done
// control frame.
func (w *Worker) pull() error {
	_, err := w.recvAveraged("pull", kindPullDone)
	return err
}

// Rejoin resumes the worker over a fresh connection after a disconnect.
// The server answers a rejoining worker with the resync stream: every
// averaged row accumulated while the worker was away, terminated by a
// resync-done frame carrying the baseline iteration its versions were
// re-baselined at. The worker applies the backlog and resumes at the
// baseline (engine.Replica.Rejoin), as the server holds its rows; the server
// admits its next push like any other (engine.Peer.Admit).
func (w *Worker) Rejoin(conn net.Conn) error {
	w.conn = conn
	w.rc = transport.NewReceiver(conn)
	msg, err := w.recvAveraged("resync", kindResyncDone)
	if err != nil {
		return err
	}
	w.iter = w.rep.Rejoin(w.iter, msg.iter)
	w.epoch = msg.epoch
	return nil
}

// RunResilient runs iterations until the worker has completed iters of
// them, reconnecting through dial with backoff b whenever the connection
// fails. A dropped iteration's compute is lost but its gradient mass is
// conserved locally and rides the first push after the rejoin. It gives up
// after maxRetries consecutive failed reconnect attempts.
func (w *Worker) RunResilient(iters int, computeGradients func(), dial func() (net.Conn, error), b *Backoff, maxRetries int) error {
	for w.iter < int64(iters) {
		err := w.RunIteration(computeGradients)
		if err == nil {
			b.Reset()
			continue
		}
		_ = w.conn.Close() // the connection already failed; nothing to do about a close error
		rejoined := false
		for attempt := 0; attempt < maxRetries; attempt++ {
			time.Sleep(b.Next())
			conn, derr := dial()
			if derr != nil {
				continue
			}
			if rerr := w.Rejoin(conn); rerr != nil {
				_ = conn.Close() // resync failed; discard the half-open connection
				continue
			}
			rejoined = true
			break
		}
		if !rejoined {
			return fmt.Errorf("livenet: worker %d gave up after %d reconnect attempts: %w",
				w.cfg.ID, maxRetries, err)
		}
	}
	return nil
}
