// Package obs is the observability layer shared by both runtimes: a
// low-overhead structured event tracer and an atomic counters/gauges
// registry. The paper's claims are time-composition claims — rows must
// move during compute, stalls must stay bounded through bandwidth fades —
// and this package makes those properties visible per transmission rather
// than only as post-hoc averages.
//
// Design constraints:
//
//   - Zero cost when disabled. Every emission goes through a *Probe whose
//     methods are nil-receiver safe; a nil probe (tracing and metrics both
//     off) is a pointer check and a return, with no allocation and no
//     interface boxing on the hot paths.
//   - No clock of its own. The probe's timestamps come from an injected
//     clock closure: the simnet drivers pass the kernel's virtual clock,
//     the socket runtime passes a monotonic wall-clock anchor. The package
//     itself never reads wall time, so the deterministic core stays
//     deterministic (enforced by roglint's wallclock pass, which lists
//     internal/obs among the restricted packages).
//   - Flat events. Event is a value struct with a fixed field set; tracers
//     receive it by value, so emitting does not allocate unless the tracer
//     itself does (the JSONL exporter reuses an internal buffer).
package obs

import "strconv"

// Kind discriminates trace events.
type Kind uint8

// Event kinds, in rough lifecycle order of a worker-iteration.
const (
	// KindIterStart marks the beginning of a worker-iteration (compute
	// starts now).
	KindIterStart Kind = iota + 1
	// KindIterEnd closes a worker-iteration and carries its time
	// composition (compute/comm/stall seconds — the same values the run's
	// metrics.Result averages).
	KindIterEnd
	// KindPushPlanned records the policy's transmission plan for one push:
	// how many units it scheduled, the MTA floor, and how many accumulated
	// units it deferred.
	KindPushPlanned
	// KindRowsSent records one completed transmission (push or pull
	// direction): delivered units, bytes on the wire, elapsed seconds.
	KindRowsSent
	// KindStallBegin marks a worker blocking on the staleness gate (or
	// another named cause).
	KindStallBegin
	// KindStallEnd closes the matching StallBegin and carries the stalled
	// duration.
	KindStallEnd
	// KindMerge records one row merged into the server state: the stamped
	// version and the row's staleness lag behind the global minimum.
	KindMerge
	// KindDetach records a worker leaving membership (crash, connection
	// loss, silent stall).
	KindDetach
	// KindReconnect records a detached worker re-attaching; Version carries
	// the re-baselined iteration.
	KindReconnect
	// KindResync records the rejoin resync transmission: backlog units
	// replayed and their wire bytes.
	KindResync
	// KindRowsLost records rows the loss channel dropped and how they were
	// settled: Cause "fold" for best-effort rows folded back into the local
	// accumulator, "retransmit" for reliable rows queued for retransmission.
	KindRowsLost
	// KindRetransmit records one retransmission flow: reliable units sent
	// again after loss, with their wire bytes and elapsed seconds.
	KindRetransmit
	// KindCheckpointBegin marks the start of writing one durable snapshot;
	// Version carries the snapshot sequence number.
	KindCheckpointBegin
	// KindCheckpointEnd closes the matching CheckpointBegin; Bytes carries
	// the snapshot size.
	KindCheckpointEnd
	// KindWALAppend records one record appended to the write-ahead log;
	// Bytes carries the encoded record size. Emitted per append, so traces
	// of journaled runs show exactly what a crash could lose.
	KindWALAppend
	// KindRecoveryReplay records one completed crash recovery: Units
	// carries the WAL records replayed, Bytes the snapshot+WAL bytes read,
	// Version the new recovery epoch.
	KindRecoveryReplay
	// KindSnapshotPublish records the serving tier publishing one immutable
	// model snapshot: Version is the training version it captures (the
	// global row minimum at publish), Seq the publish sequence number, and
	// Units the snapshot's row count.
	KindSnapshotPublish
	// KindRequestEnqueue records one inference request entering the serving
	// tier: Seq carries the request id, Version the staleness floor it
	// demands (version ≥ Version), and Lag the shortfall of the currently
	// published snapshot against that floor (0 when it can serve now).
	KindRequestEnqueue
	// KindRequestServe records one inference request answered: Seq the
	// request id, Version the snapshot version that served it, Units the
	// batch size it rode in, Seconds its enqueue-to-reply latency.
	KindRequestServe
	// KindReadStallBegin marks a request parking on the bounded-staleness
	// read gate: Seq the request id, Version the demanded floor,
	// BlockVersion the version published when it parked.
	KindReadStallBegin
	// KindReadStallEnd closes the matching ReadStallBegin: Seconds the time
	// parked, Version the snapshot version that finally admitted it.
	KindReadStallEnd
)

var kindNames = [...]string{
	KindIterStart:       "IterStart",
	KindIterEnd:         "IterEnd",
	KindPushPlanned:     "PushPlanned",
	KindRowsSent:        "RowsSent",
	KindStallBegin:      "StallBegin",
	KindStallEnd:        "StallEnd",
	KindMerge:           "Merge",
	KindDetach:          "Detach",
	KindReconnect:       "Reconnect",
	KindResync:          "Resync",
	KindRowsLost:        "RowsLost",
	KindRetransmit:      "Retransmit",
	KindCheckpointBegin: "CheckpointBegin",
	KindCheckpointEnd:   "CheckpointEnd",
	KindWALAppend:       "WALAppend",
	KindRecoveryReplay:  "RecoveryReplay",
	KindSnapshotPublish: "SnapshotPublish",
	KindRequestEnqueue:  "RequestEnqueue",
	KindRequestServe:    "RequestServe",
	KindReadStallBegin:  "ReadStallBegin",
	KindReadStallEnd:    "ReadStallEnd",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Unknown"
}

// KindFromString is the inverse of Kind.String; 0 for unknown names.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return 0
}

// Dir is the transmission direction of a RowsSent event.
type Dir uint8

// Transmission directions.
const (
	// DirNone is the zero value (non-transmission events).
	DirNone Dir = iota
	// DirPush is worker → server.
	DirPush
	// DirPull is server → worker.
	DirPull
)

// String names the direction ("" for DirNone).
func (d Dir) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return ""
	}
}

// Event is one structured trace record. Only the fields meaningful for the
// Kind are set; the rest stay zero (and the JSONL exporter omits them).
type Event struct {
	Kind   Kind
	Time   float64 // seconds since run start, on the emitter's clock
	Worker int
	Iter   int64

	Unit     int   // row-partition unit (Merge)
	Units    int   // planned/delivered/resynced unit count
	Must     int   // MTA-floor unit count (PushPlanned)
	Deferred int   // accumulated units the plan left behind (PushPlanned)
	Version  int64 // stamped row version (Merge) or rejoin baseline (Reconnect)
	Lag      int64 // staleness lag behind the global minimum (Merge)

	Bytes   float64 // wire bytes (PushPlanned, RowsSent, Resync)
	Seconds float64 // duration: transmission (RowsSent) or stall (StallEnd)

	Compute float64 // IterEnd composition
	Comm    float64
	Stall   float64

	Dir   Dir
	Spec  bool   // speculative transmission
	Cause string // stall/detach cause, or "skip" for a sat-out push

	// Seq is the serving tier's id: the publish sequence number
	// (SnapshotPublish) or the request id (Request*, ReadStall*). A push
	// needs none: (Worker, Iter) names it on its PushPlanned, RowsSent,
	// Merge and stall events alike.
	Seq int64

	// BlockWorker/BlockUnit/BlockVersion attribute a StallBegin/StallEnd
	// to the concrete blocker: on StallBegin, the (worker, unit) currently
	// pinning the global minimum version the gate is waiting on; on
	// StallEnd, the merge (or detach, Unit -1) whose minimum advance
	// released the gate. Worker and Unit are -1 when unknown.
	BlockWorker  int
	BlockUnit    int
	BlockVersion int64
}

// Blocker identifies the causal party of a staleness-gate stall: the
// (worker, unit) whose stamped version pins — or whose merge released —
// the global minimum the gate compares against. Zero is a real identity
// (worker 0, unit 0), so the unknown blocker is NoBlocker.
type Blocker struct {
	Worker  int
	Unit    int
	Version int64
}

// NoBlocker is the attribution placeholder when no concrete blocker is
// known (for example a stall released by run shutdown).
func NoBlocker() Blocker { return Blocker{Worker: -1, Unit: -1} }

// Tracer receives every emitted event. Implementations must be safe for
// concurrent use when driven from the socket runtime (the simnet kernel is
// single-threaded). The event is passed by value; a tracer that retains it
// may copy freely.
type Tracer interface {
	Emit(Event)
}

// Tee fans every event out to each non-nil tracer, in order. It returns
// nil when nothing remains and the sole survivor unwrapped, so wiring code
// can compose optional tracers without case analysis.
func Tee(tracers ...Tracer) Tracer {
	live := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return teeTracer(live)
	}
}

type teeTracer []Tracer

// Emit implements Tracer.
func (t teeTracer) Emit(e Event) {
	for _, tr := range t {
		tr.Emit(e)
	}
}

// Probe binds an optional Tracer, an optional Registry and a clock into
// the single handle the instrumented code paths hold. All methods are safe
// on a nil *Probe — the disabled configuration — and cost one pointer
// check there.
type Probe struct {
	tracer Tracer
	reg    *Registry
	now    func() float64
}

// NewProbe builds a probe; it returns nil (the disabled probe) when both
// the tracer and the registry are nil. now supplies timestamps in seconds
// since run start; nil freezes the clock at zero.
func NewProbe(t Tracer, r *Registry, now func() float64) *Probe {
	if t == nil && r == nil {
		return nil
	}
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &Probe{tracer: t, reg: r, now: now}
}

// emit stamps the event with the probe's clock and hands it to the tracer.
func (p *Probe) emit(e Event) {
	if p.tracer == nil {
		return
	}
	e.Time = p.now()
	p.tracer.Emit(e)
}

// IterStart marks the beginning of worker w's iteration n.
func (p *Probe) IterStart(w int, n int64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindIterStart, Worker: w, Iter: n})
}

// IterEnd closes worker w's iteration n with its time composition.
func (p *Probe) IterEnd(w int, n int64, compute, comm, stall float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindIterEnd, Worker: w, Iter: n, Compute: compute, Comm: comm, Stall: stall})
	if p.reg != nil {
		p.reg.Counter("iters_completed").Add(1)
		p.reg.FloatCounter("iter_compute_seconds").Add(compute)
		p.reg.FloatCounter("iter_comm_seconds").Add(comm)
		p.reg.FloatCounter("iter_stall_seconds").Add(stall)
	}
}

// PushPlanned records worker w's push plan for iteration n: units
// scheduled, the MTA floor, units deferred, total planned wire bytes. cause
// is "" normally and "skip" when the policy sat the iteration out (units is
// then 0).
func (p *Probe) PushPlanned(w int, n int64, units, must, deferred int, bytes float64, spec bool, cause string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindPushPlanned, Worker: w, Iter: n,
		Units: units, Must: must, Deferred: deferred, Bytes: bytes, Spec: spec, Cause: cause})
	if p.reg != nil {
		p.reg.Counter("rows_planned").Add(int64(units))
		p.reg.Counter("rows_deferred").Add(int64(deferred))
	}
}

// RowsSent records one completed transmission for worker w's iteration n.
func (p *Probe) RowsSent(w int, n int64, dir Dir, units int, bytes, seconds float64, spec bool) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindRowsSent, Worker: w, Iter: n,
		Units: units, Bytes: bytes, Seconds: seconds, Dir: dir, Spec: spec})
	if p.reg != nil {
		if dir == DirPull {
			p.reg.Counter("rows_pulled").Add(int64(units))
		} else {
			p.reg.Counter("rows_sent").Add(int64(units))
		}
		p.reg.FloatCounter("bytes_on_wire").Add(bytes)
	}
}

// StallBegin marks worker w blocking during iteration n for cause. blk
// names the (worker, unit, version) currently pinning the minimum the gate
// waits on (NoBlocker when unknown).
func (p *Probe) StallBegin(w int, n int64, cause string, blk Blocker) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindStallBegin, Worker: w, Iter: n, Cause: cause,
		BlockWorker: blk.Worker, BlockUnit: blk.Unit, BlockVersion: blk.Version})
}

// StallEnd closes the matching StallBegin with the stalled duration. blk
// names the merge (unit -1 for a detach) whose minimum advance released
// the gate.
func (p *Probe) StallEnd(w int, n int64, cause string, seconds float64, blk Blocker) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindStallEnd, Worker: w, Iter: n, Cause: cause, Seconds: seconds,
		BlockWorker: blk.Worker, BlockUnit: blk.Unit, BlockVersion: blk.Version})
	if p.reg != nil {
		p.reg.FloatCounter("stall_seconds/" + cause).Add(seconds)
		p.reg.Histogram("stall_duration_seconds", StallDurationBounds).Observe(seconds)
	}
}

// Merge records one row merged into the server state: unit u stamped at
// version, lagging the global minimum by lag iterations. seq lands in
// Event.Seq; the engine passes 0, since (w, n) already names the push.
func (p *Probe) Merge(w, u int, n, seq, version, lag int64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindMerge, Worker: w, Iter: n, Seq: seq, Unit: u, Version: version, Lag: lag})
	if p.reg != nil {
		p.reg.Counter("rows_merged").Add(1)
		p.reg.Histogram("staleness", StalenessBounds).Observe(float64(lag))
		p.reg.Histogram("staleness/unit"+strconv.Itoa(u), StalenessBounds).Observe(float64(lag))
	}
}

// GateCheck counts one staleness-gate evaluation and whether it blocked.
// No event is emitted — the gate is checked on every wake and would drown
// the trace; the stall interval is what StallBegin/End record.
func (p *Probe) GateCheck(ok bool) {
	if p == nil || p.reg == nil {
		return
	}
	p.reg.Counter("gate_checks").Add(1)
	if !ok {
		p.reg.Counter("gate_blocked").Add(1)
	}
}

// BudgetUsed records one observed push against the MTA-time budget in
// force when it was planned: utilization is elapsed/budget.
func (p *Probe) BudgetUsed(budget, elapsed float64) {
	if p == nil || p.reg == nil {
		return
	}
	p.reg.FloatCounter("mta_budget_seconds").Add(budget)
	p.reg.FloatCounter("mta_used_seconds").Add(elapsed)
	p.reg.Gauge("mta_budget_last").Set(budget)
}

// Detach records worker w leaving membership during iteration n.
func (p *Probe) Detach(w int, n int64, cause string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindDetach, Worker: w, Iter: n, Cause: cause})
	if p.reg != nil {
		p.reg.Counter("detaches").Add(1)
	}
}

// Reconnect records worker w re-attaching, re-baselined at iteration base.
func (p *Probe) Reconnect(w int, base int64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindReconnect, Worker: w, Iter: base, Version: base})
	if p.reg != nil {
		p.reg.Counter("reconnects").Add(1)
	}
}

// Resync records the rejoin resync for worker w: units replayed and their
// wire bytes. The resync backlog gauge reports the latest backlog depth.
func (p *Probe) Resync(w int, units int, bytes float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindResync, Worker: w, Units: units, Bytes: bytes})
	if p.reg != nil {
		p.reg.Counter("rows_resynced").Add(int64(units))
		p.reg.Gauge("resync_backlog").Set(float64(units))
	}
}

// RowsLost records units the loss channel dropped from worker w's
// iteration-n transmission, settled per cause: "fold" means best-effort
// rows folded back into the local accumulator (never sent, by RSP
// accounting), "retransmit" means reliable rows queued to go again.
func (p *Probe) RowsLost(w int, n int64, dir Dir, units int, cause string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindRowsLost, Worker: w, Iter: n, Dir: dir, Units: units, Cause: cause})
	if p.reg != nil {
		p.reg.Counter("rows_lost/" + cause).Add(int64(units))
	}
}

// Retransmit records one completed retransmission flow: units delivered on
// a repeat attempt, their wire bytes and the elapsed seconds the repeat
// cost.
func (p *Probe) Retransmit(w int, n int64, dir Dir, units int, bytes, seconds float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindRetransmit, Worker: w, Iter: n, Dir: dir, Units: units, Bytes: bytes, Seconds: seconds})
	if p.reg != nil {
		p.reg.Counter("rows_retransmitted").Add(int64(units))
		p.reg.FloatCounter("retransmit_bytes").Add(bytes)
	}
}

// CheckpointBegin marks the start of writing durable snapshot seq.
func (p *Probe) CheckpointBegin(seq uint64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindCheckpointBegin, Version: int64(seq)})
}

// CheckpointEnd closes the matching CheckpointBegin: snapshot seq is
// durable at `bytes` bytes.
func (p *Probe) CheckpointEnd(seq uint64, bytes float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindCheckpointEnd, Version: int64(seq), Bytes: bytes})
	if p.reg != nil {
		p.reg.Counter("checkpoints").Add(1)
		p.reg.FloatCounter("checkpoint_bytes").Add(bytes)
	}
}

// WALAppend records one write-ahead-log append of `bytes` encoded bytes.
func (p *Probe) WALAppend(bytes int) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindWALAppend, Bytes: float64(bytes)})
	if p.reg != nil {
		p.reg.Counter("wal_appends").Add(1)
		p.reg.FloatCounter("wal_bytes").Add(float64(bytes))
	}
}

// RecoveryReplay records one completed crash recovery: records replayed
// from the WAL, total snapshot+WAL bytes read, and the new recovery epoch.
func (p *Probe) RecoveryReplay(records int, bytes float64, epoch uint64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindRecoveryReplay, Units: records, Bytes: bytes, Version: int64(epoch)})
	if p.reg != nil {
		p.reg.Counter("recoveries").Add(1)
		p.reg.Counter("recovery_replayed_records").Add(int64(records))
	}
}

// SnapshotPublish records the serving tier publishing snapshot seq at
// training version, holding units rows.
func (p *Probe) SnapshotPublish(version, seq int64, units int) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindSnapshotPublish, Version: version, Seq: seq, Units: units})
	if p.reg != nil {
		p.reg.Counter("snapshots_published").Add(1)
		p.reg.Gauge("snapshot_version").Set(float64(version))
	}
}

// RequestEnqueue records inference request id entering the serving tier,
// demanding version ≥ minVersion while cur is published (lag is the
// shortfall, 0 when it can serve immediately).
func (p *Probe) RequestEnqueue(id, minVersion, cur int64) {
	if p == nil {
		return
	}
	lag := minVersion - cur
	if lag < 0 {
		lag = 0
	}
	p.emit(Event{Kind: KindRequestEnqueue, Seq: id, Version: minVersion, Lag: lag})
	if p.reg != nil {
		p.reg.Counter("requests_enqueued").Add(1)
	}
}

// RequestServe records request id answered from the snapshot at version,
// in a batch of batch requests, seconds after it enqueued.
func (p *Probe) RequestServe(id, version int64, batch int, seconds float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindRequestServe, Seq: id, Version: version, Units: batch, Seconds: seconds})
	if p.reg != nil {
		p.reg.Counter("requests_served").Add(1)
		p.reg.Histogram("serve_latency_seconds", ServeLatencyBounds).Observe(seconds)
	}
}

// ReadStallBegin marks request id parking on the read gate: it demands
// version ≥ minVersion but only cur is published.
func (p *Probe) ReadStallBegin(id, minVersion, cur int64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindReadStallBegin, Seq: id, Version: minVersion, BlockVersion: cur})
	if p.reg != nil {
		p.reg.Counter("read_stalls").Add(1)
	}
}

// ReadStallEnd closes request id's ReadStallBegin: the snapshot at version
// admitted it after seconds parked.
func (p *Probe) ReadStallEnd(id, version int64, seconds float64) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindReadStallEnd, Seq: id, Version: version, Seconds: seconds})
	if p.reg != nil {
		p.reg.FloatCounter("read_stall_seconds").Add(seconds)
	}
}

// ObservePlan counts one built transmission plan (an atp.Plan) and its
// size; both runtimes call it right after atp.NewPlan.
func (p *Probe) ObservePlan(units int, totalBytes float64) {
	if p == nil || p.reg == nil {
		return
	}
	p.reg.Counter("plans_built").Add(1)
	p.reg.Counter("plan_rows").Add(int64(units))
	p.reg.FloatCounter("plan_bytes").Add(totalBytes)
}

// StalenessBounds are the histogram bucket upper bounds for row staleness
// lag (iterations); lags above the last bound land in the overflow bucket.
var StalenessBounds = []float64{0, 1, 2, 4, 8, 16, 32}

// StallDurationBounds are the histogram bucket upper bounds for stall
// durations (seconds); the quantile estimates in rogtrace and the debug
// endpoint interpolate within these buckets.
var StallDurationBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ServeLatencyBounds are the histogram bucket upper bounds for inference
// request latency (seconds): sub-window batching delays up through
// read-gate stalls spanning several training iterations.
var ServeLatencyBounds = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
