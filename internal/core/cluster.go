// Package core is the simnet runtime of the synchronization engine: it
// executes the single-copy strategy policies from internal/engine (BSP,
// SSP, FLOWN, ROG) as deterministic state machines over the
// virtual-time channel while doing real SGD math on real models.
//
// The parameter-update discipline is the paper's: workers never apply their
// own gradients directly; gradients travel worker → server (averaged into
// per-worker copies) → worker, and parameters change only when averaged
// gradient rows are pulled (Algo. 1 PullAveragedGradients). The policies
// decide what moves and when a worker may advance; this package owns the
// clock, the fluid-flow links and the fault injector.
package core

import (
	"fmt"
	"strings"

	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/durable"
	"rog/internal/energy"
	"rog/internal/engine"
	"rog/internal/lossnet"
	"rog/internal/metrics"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/simnet"
	"rog/internal/trace"
)

// Strategy selects the synchronization algorithm.
type Strategy int

const (
	// BSP is bulk synchronous parallel: a full barrier every iteration.
	BSP Strategy = iota
	// SSP is stale synchronous parallel with a fixed staleness threshold.
	SSP
	// FLOWN is the dynamic-threshold scheduling baseline (model-granular
	// scheduling from estimated bandwidth, after Chen et al. [19]).
	FLOWN
	// ROG is the paper's row-granulated system: RSP staleness control with
	// ATP adaptive row scheduling.
	ROG
)

// strategyNames are the display names; the engine registry knows each
// strategy by the same name in lower case.
var strategyNames = [...]string{BSP: "BSP", SSP: "SSP", FLOWN: "FLOWN", ROG: "ROG"}

// String names the strategy.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// policyName maps the strategy to its engine registry name; "" for unknown
// strategies.
func (c Config) policyName() string {
	if c.Strategy < 0 || int(c.Strategy) >= len(strategyNames) {
		return ""
	}
	return strings.ToLower(strategyNames[c.Strategy])
}

// Workload abstracts the training task (CRUDA or CRIMP): per-worker model
// replicas, local gradient computation, and a global quality metric.
type Workload interface {
	// Model returns worker w's model replica. Replicas must share one
	// architecture.
	Model(w int) *nn.Sequential
	// ComputeGradients runs one local forward/backward on worker w's data
	// shard, accumulating into the replica's gradient matrices, and
	// returns the batch loss.
	ComputeGradients(w int) float64
	// Evaluate returns the team's current quality metric (mean over
	// workers): accuracy for CRUDA, trajectory error for CRIMP.
	Evaluate() float64
	// Increasing reports whether higher Evaluate values are better.
	Increasing() bool
}

// Config parameterizes one experiment run.
type Config struct {
	Strategy  Strategy
	Workers   int
	Threshold int // staleness threshold (SSP/FLOWN/ROG); ignored by BSP

	Env  trace.Env
	Seed uint64
	// Traces overrides the generated per-worker link traces — the replay
	// path of the paper's artifact, which replays recorded bandwidth
	// through tc. Must have Workers entries when set; Env/Seed are then
	// ignored for trace generation.
	Traces []*trace.Trace

	// ComputeSeconds is the virtual time of one local iteration including
	// gradient (de)compression, before BatchScale (paper: 2.18 s compute +
	// ≈0.46 s compression on Jetson Xavier NX).
	ComputeSeconds float64
	// BatchScale multiplies compute time (×2/×4 in the batch-size
	// sensitivity study). The data batch itself is scaled by the workload.
	BatchScale float64
	// ComputeSkew holds per-worker compute-time multipliers for
	// heterogeneous teams (the paper's robots vs laptops). nil means a
	// homogeneous team. Must have Workers entries when set.
	ComputeSkew []float64

	// PaperModelBytes is the compressed model size whose transmission
	// behaviour the channel is scaled to reproduce (2.1 MB for CRUDA,
	// 0.76 MB for CRIMP). The local model is much smaller, so link
	// capacities are scaled down by localWireSize/PaperModelBytes,
	// preserving the paper's comm:compute ratio.
	PaperModelBytes float64

	LR       float64
	Momentum float64
	// LRDecayIters > 0 applies the 1/(1+n/decay) schedule the convergence
	// proof assumes (η_t ∝ 1/√t-style decay); n is the worker's own
	// iteration count, so per-iteration semantics stay comparable across
	// strategies.
	LRDecayIters float64

	Granularity rowsync.Granularity // Rows unless running the ablation
	Coeff       atp.Coefficients    // importance-metric weights (ROG); zero: atp.DefaultCoefficients

	// Shards splits the server state into this many contiguous unit-range
	// shards, each behind its own lock (clamped to [1, NumUnits]; 0 means
	// 1). The simnet kernel is single-threaded, so sharding changes no
	// simulated timing — shards=K runs are bit-identical to shards=1 —
	// but it exercises the same sharded merge path the socket server runs
	// concurrently, and the fleet experiment sweeps it.
	Shards int

	// Aggregators inserts an edge-aggregation tier between the robots and
	// the parameter server: the N workers are split into contiguous groups,
	// each syncing through one of M edge aggregators that coalesces
	// same-unit rows (summing gradient mass, concatenating version stamps)
	// while its uplink is busy and forwards the combined rows to the root.
	// Forwarded rows carry every originating worker's iteration stamp, so
	// the RSP staleness bound is preserved through the tier. Pulls stay
	// direct (root → worker). 0 disables the tier. An uplink is a link like
	// a robot's: it draws Loss, is dark while the server is down, and what
	// the tier holds across a servercrash is delivered after the restart.
	Aggregators int

	// Pipeline enables the paper's future-work extension (Sec. VI-D):
	// overlapping each robot's computation with its communication,
	// Pipe-SGD style — a robot computes iteration n+1 while its radio
	// synchronizes n. It is a property of the runtime's worker loop, not of
	// the strategy: every strategy runs with it, under its own gate.
	Pipeline bool

	// PerUnitCheckSeconds models the ablation where a timeout judgement is
	// inserted between every two units instead of speculative transmission
	// (Sec. III-A): each unit's transmission is stretched by this many
	// seconds of dead air. 0 = speculative transmission (the default).
	PerUnitCheckSeconds float64

	// Loss injects a packet-loss channel model on every link — each robot's
	// and each aggregator uplink's, every one from its own seed stream
	// (internal/lossnet grammar: "iid:0.05", "ge:0.05/16", "none"). The zero
	// value disables loss and leaves the transmit paths untouched.
	Loss lossnet.Spec
	// Reliability selects how lost rows settle: Selective (default)
	// retransmits only a speculative plan's Must prefix and folds the rest
	// back into the sender's accumulator; AllReliable retransmits
	// everything.
	Reliability lossnet.Reliability

	// Faults is the injected fault schedule: worker crashes (with optional
	// rejoin), link blackouts, flapping links and parameter-server crashes,
	// all in virtual time — parsed from the CLI/config grammar by
	// simnet.ParseFaultSchedule. Empty means a fault-free run.
	Faults simnet.FaultSchedule

	// Durable, when set, makes the parameter-server state crash-consistent:
	// every merge/drain/membership transition is journaled to the store's
	// WAL and a full snapshot is rotated in every SnapshotEverySeconds of
	// virtual time. Required for servercrash faults and for Resume.
	Durable *durable.Store
	// SnapshotEverySeconds is the checkpoint rotation interval in virtual
	// seconds (default 60 when Durable is set).
	SnapshotEverySeconds float64
	// Resume continues a previous run from Durable's latest valid
	// snapshot + WAL instead of starting fresh: server state is recovered,
	// worker replicas and iteration counters are restored from the
	// checkpoint payload.
	Resume bool
	// RecoverySecondsPerMB converts recovered bytes (snapshot + replayed
	// WAL) into virtual restart latency after a servercrash fault. 0 makes
	// recovery instantaneous — useful for bit-exactness tests.
	RecoverySecondsPerMB float64

	MaxIterations     int     // stop after worker 0 completes this many
	MaxVirtualSeconds float64 // and/or after this much virtual time
	CheckpointEvery   int     // evaluate every N worker-0 iterations

	RecordMicro bool // collect Fig. 8 micro-event samples for worker 1

	// Trace, when set, receives every structured runtime event with
	// virtual-time timestamps (obs.NewJSONLTracer / obs.NewChromeTracer).
	Trace obs.Tracer
	// Metrics, when set, accumulates the runtime counters/gauges/histograms
	// (rows sent, bytes on wire, staleness, stall causes, MTA budget).
	Metrics *obs.Registry
}

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.Workers < 2 {
		return fmt.Errorf("core: need ≥2 workers, got %d", c.Workers)
	}
	if c.policyName() == "" {
		return fmt.Errorf("core: unknown strategy %v", c.Strategy)
	}
	if c.Strategy != BSP && c.Threshold < 2 {
		return fmt.Errorf("core: threshold must be ≥2, got %d", c.Threshold)
	}
	if c.ComputeSeconds <= 0 {
		c.ComputeSeconds = 2.64 // 2.18 compute + 0.46 compression
	}
	if c.BatchScale <= 0 {
		c.BatchScale = 1
	}
	if c.PaperModelBytes <= 0 {
		c.PaperModelBytes = 2.1e6
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.ComputeSkew != nil && len(c.ComputeSkew) != c.Workers {
		return fmt.Errorf("core: ComputeSkew has %d entries for %d workers", len(c.ComputeSkew), c.Workers)
	}
	if c.Traces != nil && len(c.Traces) != c.Workers {
		return fmt.Errorf("core: Traces has %d entries for %d workers", len(c.Traces), c.Workers)
	}
	if err := c.Faults.Validate(c.Workers); err != nil {
		return err
	}
	for _, e := range c.Faults {
		if e.Kind == simnet.FaultServerCrash && c.Durable == nil {
			return fmt.Errorf("core: servercrash fault %q needs a Durable checkpoint store to recover from", e)
		}
	}
	if c.Resume && c.Durable == nil {
		return fmt.Errorf("core: Resume needs a Durable checkpoint store")
	}
	if c.RecoverySecondsPerMB < 0 {
		return fmt.Errorf("core: negative RecoverySecondsPerMB")
	}
	if c.Durable != nil && c.SnapshotEverySeconds <= 0 {
		c.SnapshotEverySeconds = 60
	}
	if err := c.Loss.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative Shards %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Aggregators < 0 {
		return fmt.Errorf("core: negative Aggregators %d", c.Aggregators)
	}
	if c.Aggregators >= c.Workers {
		return fmt.Errorf("core: need fewer Aggregators than Workers, got %d for %d workers",
			c.Aggregators, c.Workers)
	}
	if c.MaxIterations <= 0 && c.MaxVirtualSeconds <= 0 {
		return fmt.Errorf("core: no termination condition configured")
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1 << 30
	}
	if c.MaxVirtualSeconds <= 0 {
		c.MaxVirtualSeconds = 1e12
	}
	return nil
}

// MicroSample is one Fig. 8 data point: what the link offered and how ROG
// responded.
type MicroSample struct {
	Time      float64 // virtual seconds
	LinkMbps  float64 // instantaneous link capacity of the observed worker
	TxRate    float64 // fraction of units delivered in that push
	Staleness int64   // iterations the worker lags the fastest worker
}

// Result is everything an experiment reports.
type Result struct {
	Strategy    Strategy
	Threshold   int
	Series      metrics.Series      // quality vs iter/time/energy checkpoints
	Composition metrics.Composition // average per worker-iteration
	Iterations  int                 // completed by worker 0
	TotalJoules float64             // summed across the team
	StallFrac   float64             // stall share of the average iteration
	Micro       []MicroSample
	FinalValue  float64
	Churn       metrics.ChurnStats    // membership-churn counters (fault runs)
	Loss        metrics.LossStats     // packet-loss counters (lossy runs)
	Recovery    metrics.RecoveryStats // checkpoint/recovery counters (durable runs)
	// MaxStaleness is the largest lead (merge iteration minus global
	// version floor) any row merge observed — the empirical RSP bound.
	// Aggregated runs assert it stays within the configured threshold.
	MaxStaleness int64
}

// Label renders "BSP", "SSP-4", "ROG-20", …
func (r *Result) Label() string {
	if r.Strategy == BSP || r.Strategy == FLOWN {
		return r.Strategy.String()
	}
	return fmt.Sprintf("%s-%d", r.Strategy, r.Threshold)
}

// cluster is the shared runtime state of one experiment: the simnet
// Runtime that executes an engine.Policy. The policy decides plans and
// gates; the cluster owns the kernel, the channel, the workload math and
// the energy/stall accounting.
type cluster struct {
	cfg  Config
	wl   Workload
	k    *simnet.Kernel
	ch   *simnet.Channel
	part *rowsync.Partition

	policy engine.Policy
	state  *engine.State

	rep []*engine.Replica // per-robot worker half: model, optimizer, g′, push stamps, uplink codec
	// peer is the server's half per worker (gate stall, downlink codec, pull
	// in flight); it lives here so all of it survives a recovered state swap.
	peer []*engine.Peer

	// gates parks workers the staleness gate holds back, one slot each. It
	// lives here, not in the engine state, so parked gates survive a
	// recovered state swap.
	gates gateSlots

	meters []*energy.Meter
	comp   metrics.CompositionRecorder
	series metrics.Series

	iter   []int64 // completed iterations per worker
	halted []bool

	// robots is the per-worker loop state (CPU, radio, the iteration between
	// them); crashed marks the workers a fault has taken out (churn counters
	// live in the engine state).
	robots  []robot
	crashed []bool

	// links are the hops plans ride: robot w's radio at [w], then (with
	// cfg.Aggregators) aggregator a's backhaul uplink at [Workers+a].
	links []link
	// agg is the edge-aggregation tier (nil unless cfg.Aggregators > 0).
	agg *aggTier

	// Durable-server state: the checkpoint store (nil = volatile server),
	// whether the server is currently down, the robots whose rejoin waits for
	// it, when it crashed, accumulated recovery counters, and the first
	// unrecoverable error (surfaced by Run).
	store      *durable.Store
	payload    []byte // resumePayload's buffer, reused by every checkpoint
	serverDown bool
	rejoins    []int
	crashTime  float64
	recovery   metrics.RecoveryStats
	fatalErr   error

	// probe is the observability handle (nil when tracing and metrics are
	// both off — every emit site is then a pointer check).
	probe *obs.Probe

	micro []MicroSample

	// decode scratch
	scratch []float32
}

func newCluster(cfg Config, wl Workload) *cluster {
	k := simnet.NewKernel()
	links := cfg.Traces
	if links == nil {
		links = make([]*trace.Trace, cfg.Workers)
		for w := range links {
			links[w] = trace.GenerateEnv(cfg.Env, 300, cfg.Seed*1000+uint64(w)+1)
		}
	}
	params := wl.Model(0).Params()
	part := rowsync.NewPartition(params, cfg.Granularity)
	// Scale the channel so our small model's row partition transmits in the
	// same time the paper's compressed model would on the real link. Every
	// granularity runs on that one channel, so a finer one genuinely pays
	// its index overhead (Sec. III-A's management-cost argument).
	rows := part
	if cfg.Granularity != rowsync.Rows {
		rows = rowsync.NewPartition(params, rowsync.Rows)
	}
	scale := float64(rows.TotalWireSize()) / cfg.PaperModelBytes

	policy, err := engine.New(cfg.policyName(), engine.Params{
		Workers:   cfg.Workers,
		Threshold: cfg.Threshold,
		NumUnits:  part.NumUnits(),
		Coeff:     cfg.Coeff,
	})
	if err != nil {
		// Validate rejects unknown strategies before any cluster is built.
		panic(err)
	}

	c := &cluster{
		cfg:     cfg,
		wl:      wl,
		k:       k,
		ch:      simnet.NewChannel(k, links, scale),
		part:    part,
		policy:  policy,
		gates:   make(gateSlots, cfg.Workers),
		scratch: make([]float32, part.MaxUnitLen()),
		iter:    make([]int64, cfg.Workers),
		halted:  make([]bool, cfg.Workers),
		robots:  make([]robot, cfg.Workers),
		crashed: make([]bool, cfg.Workers),
	}
	for w := range links {
		c.links = append(c.links, c.newLink(c.ch, w, w, cfg.Seed*6151+uint64(w)+1))
	}
	if cfg.Aggregators > 0 {
		c.agg = newAggTier(c)
	}
	c.probe = obs.NewProbe(cfg.Trace, cfg.Metrics, k.Now)
	c.adopt(engine.NewStateSharded(policy, part, cfg.Workers, 1.0, cfg.Shards))
	c.series.Name = fmt.Sprintf("%s-%d", cfg.Strategy, cfg.Threshold)
	for w := 0; w < cfg.Workers; w++ {
		c.rep = append(c.rep, engine.NewReplica(wl.Model(w), part, cfg.LR, cfg.Momentum))
		c.peer = append(c.peer, engine.NewPeer(w, part))
		c.meters = append(c.meters, energy.NewMeter(energy.PaperModel()))
	}
	return c
}

// adopt makes st — fresh, or recovered from the checkpoint store — the
// server state the drivers act on, traced by the probe.
func (c *cluster) adopt(st *engine.State) {
	st.Probe = c.probe
	c.state = st
}

// newLink makes device dev of ch a link whose events carry id. Its loss model
// draws cfg.Loss from its own seed stream, so loss and bandwidth schedules
// stay independent draws.
func (c *cluster) newLink(ch *simnet.Channel, dev, id int, seed uint64) link {
	return link{ch: ch, dev: dev, loss: c.cfg.Loss.Model(seed), id: id}
}

// computeSecondsFor is one iteration's virtual compute time for worker w,
// honoring heterogeneity.
func (c *cluster) computeSecondsFor(w int) float64 {
	base := c.cfg.ComputeSeconds * c.cfg.BatchScale
	if c.cfg.ComputeSkew == nil {
		return base
	}
	return base * c.cfg.ComputeSkew[w]
}

// deliverPush moves worker w's unit u at local iteration n into the server
// state (Algo. 2 lines 2–6: shrink-to-attached averaging and version stamping
// live in engine.State.Merge).
func (c *cluster) deliverPush(w, u int, n int64) {
	payload := c.rep[w].EncodeUnit(u)
	vals := c.scratch[:payload.N]
	compress.Decode(payload, vals)
	if c.agg != nil {
		// Edge tier: the row lands at w's aggregator, which coalesces and
		// forwards it (with w's stamp) over its own uplink. enqueue copies
		// vals — c.scratch is reused by the next decode.
		c.agg.enqueue(u, vals, engine.Stamp{Worker: w, Iter: n})
	} else {
		c.state.Merge(w, u, vals, n)
	}
	c.rep[w].Stamp(u, n)
}

// deliverPull applies an averaged row that reached worker w to its replica
// (Algo. 1 lines 13–16); its server copy was drained at plan time.
func (c *cluster) deliverPull(w int, p compress.Payload) {
	vals := c.scratch[:p.N]
	compress.Decode(p, vals)
	c.rep[w].Apply(p.Row, vals)
}

// accumulate folds worker w's freshly computed gradients into its local
// store and refreshes its learning rate under the decay schedule.
func (c *cluster) accumulate(w int) {
	c.rep[w].Accumulate()
	if c.cfg.LRDecayIters > 0 {
		c.rep[w].Opt.LR = c.cfg.LR / (1 + float64(c.iter[w])/c.cfg.LRDecayIters)
	}
}

// planPush asks the policy what worker w transmits for iteration n.
func (c *cluster) planPush(w int, n int64) engine.Plan {
	return c.policy.PlanPush(c.rep[w].PushView(w, n, c.state.Versions.Min(), c.state.Tracker.Budget()))
}

// checkpoint evaluates the workload and appends a series point.
func (c *cluster) checkpoint() {
	var joules float64
	for _, m := range c.meters {
		joules += m.Joules()
	}
	// The iteration axis uses the team mean so that strategies letting fast
	// workers race ahead are not credited with free extra work per
	// "iteration" (statistical efficiency compares equal gradient counts).
	var sum int64
	for _, it := range c.iter {
		sum += it
	}
	c.series.Add(metrics.Point{
		Iter:   int(sum / int64(len(c.iter))),
		Time:   c.k.Now(),
		Energy: joules,
		Value:  c.wl.Evaluate(),
	})
}

// finishIteration updates meters and composition for one worker-iteration
// and advances the iteration counter.
func (c *cluster) finishIteration(w int, startTime, commSeconds float64) {
	total := c.k.Now() - startTime
	comp := c.computeSecondsFor(w)
	stall := total - comp - commSeconds
	if stall < 0 {
		stall = 0
	}
	c.meters[w].Add(energy.Compute, comp)
	c.meters[w].Add(energy.Communicate, commSeconds)
	c.meters[w].Add(energy.Stall, stall)
	c.comp.Record(metrics.Composition{Compute: comp, Comm: commSeconds, Stall: stall})
	// The trace carries the exact values the Result averages, so an
	// aggregated trace reproduces Result.Composition bit-for-bit.
	c.probe.IterEnd(w, c.iter[w]+1, comp, commSeconds, stall)
	c.iter[w]++
	if w == 0 && c.iter[0]%int64(c.cfg.CheckpointEvery) == 0 {
		c.checkpoint()
	}
}

// result finalizes the Result after the kernel drains.
func (c *cluster) result() *Result {
	var joules float64
	for _, m := range c.meters {
		joules += m.Joules()
	}
	comp := c.comp.Average()
	stallFrac := 0.0
	if comp.Total() > 0 {
		stallFrac = comp.Stall / comp.Total()
	}
	r := &Result{
		Strategy:     c.cfg.Strategy,
		Threshold:    c.cfg.Threshold,
		Series:       c.series,
		Composition:  comp,
		Iterations:   int(c.iter[0]),
		TotalJoules:  joules,
		StallFrac:    stallFrac,
		Micro:        c.micro,
		FinalValue:   c.series.Last().Value,
		Churn:        c.state.ChurnSnapshot(),
		Loss:         c.state.LossSnapshot(),
		Recovery:     c.recovery,
		MaxStaleness: c.state.MaxLeadObserved(),
	}
	return r
}

// launch starts every worker's loop.
func (c *cluster) launch() {
	for w := range c.robots {
		c.resume(w)
	}
}

// Run executes one experiment to completion and returns its Result.
func Run(cfg Config, wl Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newCluster(cfg, wl)
	if err := c.setupDurable(); err != nil {
		return nil, err
	}
	c.checkpoint() // baseline point at t=0
	c.launch()
	if len(cfg.Faults) > 0 {
		if err := c.installFaults(); err != nil {
			return nil, err
		}
	}
	c.k.RunUntilIdle(200_000_000)
	if c.fatalErr != nil {
		return nil, c.fatalErr
	}
	if c.store != nil {
		// One last checkpoint so a later -resume continues from the end of
		// this run, not the last rotation tick.
		if !c.serverDown {
			if err := c.store.Checkpoint(c.state, c.resumePayload()); err != nil {
				return nil, fmt.Errorf("core: final checkpoint: %w", err)
			}
		}
		if err := c.store.Err(); err != nil {
			return nil, fmt.Errorf("core: checkpoint store failed mid-run: %w", err)
		}
	}
	c.checkpoint() // final point
	return c.result(), nil
}
