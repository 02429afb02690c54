package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"rog/internal/core"
	"rog/internal/durable"
	"rog/internal/harness"
	"rog/internal/lossnet"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/simnet"
	"rog/internal/tensor"
	"rog/internal/trace"
)

// The three simulator workloads run whole training experiments on the
// virtual clock and time them on the wall clock. One segment is one fixed
// virtual horizon for every system (or fleet cell) of the workload, so a
// segment is fixed work and repeats bit-identically.
//
// --seed derives the data: dataset synthesis, pretraining, the shard
// partition, the fleet's gradient noise. The environment — the per-robot
// bandwidth traces and the packet-loss draws, both derived from
// core.Config.Seed — is held at the constants below, as the paper's
// artifact replays one recorded trace. How far a system gets in a fixed virtual horizon
// depends on the traces, so a seed that changed them would change the
// amount of work by tens of percent and no two seeds could be compared.
const (
	crudaEnvSeed = 1  // harness.RunEndToEnd's default seed: the environment of the repo's Fig. 1
	fleetEnvSeed = 33 // internal/harness/fleet.go's
)

// Constants harness.RunEndToEnd uses for a CRUDA system; crudaSegment is
// that function's loop with the data seed and the environment seed apart,
// and with room for the tracing decorators.
const (
	crudaComputeSeconds = 2.64
	crudaModelBytes     = 2.1e6
	crudaLR             = 0.025
	crudaMomentum       = 0.9
	crudaLRDecayIters   = 600
)

type fleetCell struct{ workers, shards, aggregators int }

const fleetThreshold = 8

// simEvery is how much simulator work passes between two calibrations of
// the meter: 5 ms against a 0.3 ms calibration keeps the reference kernel
// under a tenth of the run.
const simEvery = 5 * time.Millisecond

// sysOutcome is what one system (or cell) of a segment produced.
type sysOutcome struct {
	label     string
	threshold int64 // staleness bound the system promises
	res       *core.Result
}

type simInstance struct {
	name string
	sz   *sizes
	seed uint64

	traces [][]*trace.Trace // fleet-sync: per cell, one link trace per robot

	// CRUDA workloads (fig1-cruda, robust-sim); systems is empty for the fleet.
	systems []harness.SystemSpec
	scale   harness.Scale
	faults  simnet.FaultSchedule // robust-sim only, with loss and the durable store
	loss    lossnet.Spec
	// refNoisyAcc is the pretrained model's accuracy on the shifted domain:
	// what training has to beat for rog_final_acc to count as learning.
	refNoisyAcc float64

	tr   *track // nil when untraced
	m    *meter // the simulator is one goroutine, so one meter times it
	last []sysOutcome

	// traced accumulators, summed over the pass's segments
	fs       fsStats
	runAlloc region // bytes and mallocs inside core.Run
	// reg, when set, collects the program's own counters in place of the
	// spans: the counting segment layers runs once the timed ones are done.
	reg *obs.Registry
}

func newSimInstance(name string, seed uint64, sz *sizes, rec *recorder) *simInstance {
	tr := rec.track("sim")
	return &simInstance{name: name, sz: sz, seed: seed, tr: tr, m: newMeter(simEvery, tr)}
}

func (in *simInstance) fleet() bool  { return len(in.systems) == 0 }
func (in *simInstance) robust() bool { return len(in.faults) > 0 }

func scaledQuick(sz *sizes) harness.Scale {
	s := harness.Quick
	s.VirtualSeconds *= sz.simScale
	s.PretrainIters = int(float64(s.PretrainIters) * sz.simScale)
	return s
}

func crudaOptions(seed uint64, workers int, sz *sizes) harness.CRUDAOptions {
	o := harness.DefaultCRUDAOptions()
	o.Workers = workers
	o.Seed = seed
	o.PretrainIters = scaledQuick(sz).PretrainIters
	return o
}

func setupFig1(seed uint64, sz *sizes, rec *recorder) (instance, error) {
	in := newSimInstance("fig1-cruda", seed, sz, rec)
	in.systems, in.scale = harness.PaperSystems(), scaledQuick(sz)
	in.refNoisyAcc = harness.NewCRUDA(crudaOptions(seed, 4, sz)).PretrainNoisyAcc
	return in, nil
}

func setupRobust(seed uint64, sz *sizes, rec *recorder) (instance, error) {
	in := newSimInstance("robust-sim", seed, sz, rec)
	in.systems = []harness.SystemSpec{{Strategy: core.SSP, Threshold: 4}, {Strategy: core.ROG, Threshold: 4}, {Strategy: core.ROG, Threshold: 20}}
	in.scale = scaledQuick(sz)
	in.scale.VirtualSeconds *= 2
	T := in.scale.VirtualSeconds
	var err error
	if in.faults, err = simnet.ParseFaultSchedule(fmt.Sprintf(
		"crash:1@%g+%g,blackout:2@%g+%g,servercrash@%g+%g", T/4, T/4, 5*T/8, T/8, T/2, T/16)); err != nil {
		return nil, err
	}
	if in.loss, err = lossnet.ParseSpec("ge:0.05"); err != nil {
		return nil, err
	}
	in.refNoisyAcc = harness.NewCRUDA(crudaOptions(seed, 4, sz)).PretrainNoisyAcc
	return in, nil
}

// setupFleet generates the fleet's environment: one 300 s bandwidth trace
// per robot and cell, by the formula core.Run would use were it given none.
func setupFleet(seed uint64, sz *sizes, rec *recorder) (instance, error) {
	in := newSimInstance("fleet-sync", seed, sz, rec)
	for _, cell := range sz.fleetCells {
		links := make([]*trace.Trace, cell.workers)
		for w := range links {
			links[w] = trace.GenerateEnv(trace.Outdoor, 300, fleetEnvSeed*1000+uint64(w)+1)
		}
		in.traces = append(in.traces, links)
	}
	return in, nil
}

func (in *simInstance) warmup() error    { return nil }
func (in *simInstance) cancel()          {}
func (in *simInstance) close() error     { return nil }
func (in *simInstance) meters() []*meter { return []*meter{in.m} }

func (in *simInstance) segment() (float64, []float64, error) {
	in.tr.nextRun()
	seg := in.tr.begin("segment")
	defer in.tr.end(seg)
	in.last = in.last[:0]
	in.m.start()
	var err error
	if in.fleet() {
		err = in.fleetSegment()
	} else {
		err = in.crudaSegment()
	}
	if err != nil {
		return 0, nil, err
	}
	var iters float64
	for _, o := range in.last {
		iters += float64(o.res.Iterations)
	}
	in.m.lap()
	// The timed operation is the whole sweep: the systems differ too much
	// in cost for a median over them to mean anything.
	return iters, []float64{in.m.ref}, nil
}

// specBound is the staleness a system may show: its threshold, or 1 for BSP.
func specBound(s harness.SystemSpec) int64 {
	if s.Strategy == core.BSP {
		return 1
	}
	return int64(s.Threshold)
}

// crudaSegment runs every system on a fresh copy of the workload, as
// harness.RunEndToEnd does; when traced, the workload and (for robust-sim)
// the checkpoint filesystem are wrapped.
func (in *simInstance) crudaSegment() error {
	for _, sys := range in.systems {
		sp := in.tr.begin("harness.build")
		wl := harness.NewCRUDA(crudaOptions(in.seed, 4, in.sz))
		in.tr.end(sp)
		in.m.lap() // the build is one piece: it calls nothing the meter could hook
		cfg := core.Config{
			Strategy: sys.Strategy, Workers: 4, Threshold: sys.Threshold,
			Env: trace.Outdoor, Seed: crudaEnvSeed,
			ComputeSeconds: crudaComputeSeconds, BatchScale: 1, PaperModelBytes: crudaModelBytes,
			LR: crudaLR, Momentum: crudaMomentum, LRDecayIters: crudaLRDecayIters,
			MaxVirtualSeconds: in.scale.VirtualSeconds, CheckpointEvery: in.scale.CheckpointEvery,
			Faults: in.faults, Loss: in.loss,
		}
		if in.robust() {
			mem := durable.NewMemFS()
			var fs durable.FS = mem
			if in.tr != nil {
				fs = &tracedFS{inner: mem, tr: in.tr, stats: &in.fs}
			}
			st, err := durable.Open(fs, "ckpt")
			if err != nil {
				return err
			}
			st.SyncEvery = 1
			cfg.Durable = st
			cfg.SnapshotEverySeconds = in.scale.VirtualSeconds / 8
			cfg.RecoverySecondsPerMB = 0.5
		}
		res, err := in.run(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.Label(), err)
		}
		in.m.lap()
		in.last = append(in.last, sysOutcome{label: res.Label(), threshold: specBound(sys), res: res})
	}
	return nil
}

func (in *simInstance) fleetSegment() error {
	for i, cell := range in.sz.fleetCells {
		label := fmt.Sprintf("w%d-s%d-a%d", cell.workers, cell.shards, cell.aggregators)
		sp := in.tr.begin("harness.build")
		wl := newFleetWorkload(cell.workers, in.seed)
		in.tr.end(sp)
		res, err := in.run(core.Config{
			Strategy: core.ROG, Workers: cell.workers, Threshold: fleetThreshold,
			Shards: cell.shards, Aggregators: cell.aggregators,
			Traces: in.traces[i], Seed: fleetEnvSeed,
			ComputeSeconds: 1, PaperModelBytes: 5e4, LR: 0.02, Momentum: 0.9,
			MaxVirtualSeconds: in.sz.fleetSeconds, CheckpointEvery: 50,
		}, wl)
		if err != nil {
			return fmt.Errorf("fleet %s: %w", label, err)
		}
		in.last = append(in.last, sysOutcome{label: label, threshold: fleetThreshold, res: res})
	}
	return nil
}

// run is core.Run with the workload's two callbacks hooked for the meter;
// when traced it runs inside a span, with the callbacks timed and the
// allocations counted.
func (in *simInstance) run(cfg core.Config, wl core.Workload) (*core.Result, error) {
	wl = &hookedWorkload{Workload: wl, tr: in.tr, m: in.m}
	if in.tr == nil {
		cfg.Metrics = in.reg
		return core.Run(cfg, wl)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := in.tr.begin("core.run")
	res, err := core.Run(cfg, wl)
	in.tr.end(sp)
	runtime.ReadMemStats(&m1)
	in.runAlloc.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	in.runAlloc.mallocs += float64(m1.Mallocs - m0.Mallocs)
	return res, err
}

func (in *simInstance) fingerprint() []string {
	fp := make([]string, len(in.last))
	for i, o := range in.last {
		fp[i] = fmt.Sprintf("%s iters=%d final=%016x joules=%016x", o.label, o.res.Iterations,
			math.Float64bits(o.res.FinalValue), math.Float64bits(o.res.TotalJoules))
	}
	return fp
}

func (in *simInstance) verify(t *tally) {
	checkSim(t, in.name, in.last, in.refNoisyAcc, in.robust(), in.fleet())
}

// checkSim is the simulator workloads' correctness check over the last
// segment's outcomes.
func checkSim(t *tally, name string, outs []sysOutcome, refAcc float64, robust, fleet bool) {
	for _, o := range outs {
		r := o.res
		t.check(r.MaxStaleness <= o.threshold, "%s %s: staleness %d over bound %d", name, o.label, r.MaxStaleness, o.threshold)
		finite := !math.IsNaN(r.FinalValue) && !math.IsInf(r.FinalValue, 0) && !math.IsNaN(r.TotalJoules) && !math.IsInf(r.TotalJoules, 0)
		t.check(finite && r.Iterations > 0, "%s %s: iters=%d final=%v joules=%v", name, o.label, r.Iterations, r.FinalValue, r.TotalJoules)
		if robust {
			ok := r.Churn.Disconnects == 1 && r.Churn.Reconnects == 1 && r.Recovery.Recoveries == 1 &&
				r.Loss.RowsRetransmitted > 0 && r.Recovery.ReplayedRecords > 0
			t.check(ok, "%s %s: churn %+v loss %+v recovery %+v", name, o.label, r.Churn, r.Loss, r.Recovery)
		}
		if !fleet && o.label == "ROG-4" {
			t.check(r.FinalValue > refAcc, "%s: ROG-4 final accuracy %.4f not above the pretrained model's %.4f", name, r.FinalValue, refAcc)
		}
	}
	if fleet && len(outs) >= 2 {
		// Sharding must not change a single-threaded simulation.
		a, b := outs[0].res, outs[1].res
		same := a.Iterations == b.Iterations && a.FinalValue == b.FinalValue && a.TotalJoules == b.TotalJoules
		t.check(same, "%s: %s and %s differ", name, outs[0].label, outs[1].label)
	}
}

// count runs one more segment, untimed and without spans, with the
// program's runtime counters on. The counts are exact and repeat, so one
// segment gives them, and the timed segments do not pay for the registry.
func (in *simInstance) count(t *tally) obs.Snapshot {
	traced := in.fingerprint()
	in.tr, in.m.tr, in.reg = nil, nil, obs.NewRegistry()
	_, _, err := in.segment()
	t.check(err == nil, "%s: counting segment: %v", in.name, err)
	t.check(slices.Equal(traced, in.fingerprint()), "%s: Config.Metrics changed the outcome", in.name)
	return in.reg.Snapshot()
}

func (in *simInstance) layers(out map[string]float64, p *pass, t *tally) {
	n := float64(len(p.segs))
	agg := p.rec.aggregate()
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	wall := get("segment").total - get("bench.calibrate").total
	out["nn.compute_s"] = get("nn.compute").total / n
	out["nn.compute_share"] = ratio(get("nn.compute").total, wall)
	out["harness.evaluate_s"] = get("harness.evaluate").total / n
	out["harness.evaluate_share"] = ratio(get("harness.evaluate").total, wall)
	out["harness.workload_build_s"] = get("harness.build").total / n
	out["harness.build_share"] = ratio(get("harness.build").total, wall)
	out["harness.systems"] = float64(len(in.last))
	out["core.run_s"] = median(get("core.run").durs)
	out["core.sync_self_s"] = get("core.run").self / n
	out["core.sync_share"] = ratio(get("core.run").self, wall)

	snap := in.count(t)
	teamIters := float64(snap.Counters["iters_completed"]) // every robot's, per segment
	out["core.mallocs_per_iter"] = ratio(in.runAlloc.mallocs/n, teamIters)
	out["core.alloc_kb_per_iter"] = ratio(in.runAlloc.allocBytes/n/1e3, teamIters)
	out["core.rows_sent"] = float64(snap.Counters["rows_sent"])
	out["core.rows_merged"] = float64(snap.Counters["rows_merged"])
	out["core.bytes_on_wire"] = snap.Floats["bytes_on_wire"]
	out["core.gate_blocked"] = float64(snap.Counters["gate_blocked"])
	if !in.fleet() {
		// A replica's iterations per second inside core.Run, checkpoint
		// evaluation left out, against the plain SGD loop's: how much the
		// sync plane (and on robust-sim the faults and the log) slow it.
		trainS := (get("core.run").total - get("harness.evaluate").total - get("bench.calibrate").total) / n
		out["core.sync_overhead_x"] = ratio(out["nn.local_iters_per_s"], ratio(teamIters, trainS))
	}

	var virtIters, virtSeconds float64
	for _, o := range in.last {
		r := o.res
		virtIters += float64(r.Iterations)
		out["core.max_staleness"] = math.Max(out["core.max_staleness"], float64(r.MaxStaleness))
		out["lossnet.rows_folded"] += float64(r.Loss.RowsLostFolded)
		out["lossnet.rows_retransmitted"] += float64(r.Loss.RowsRetransmitted)
		out["lossnet.retransmit_bytes"] += r.Loss.RetransmitBytes
		out["durable.replayed_records"] += float64(r.Recovery.ReplayedRecords)
		if o.label == "ROG-4" {
			out["harness.rog_final_acc"] = r.FinalValue
		}
		if in.fleet() {
			virtSeconds += in.sz.fleetSeconds
		} else {
			virtSeconds += in.scale.VirtualSeconds
		}
	}
	out["core.virt_iters"] = virtIters
	out["simnet.sim_s_per_wall_s"] = ratio(virtSeconds, median(p.walls()))

	out["durable.fs_writes"] = float64(in.fs.writes) / n
	out["durable.fs_write_bytes"] = float64(in.fs.bytes) / n
	out["durable.fs_syncs"] = float64(in.fs.syncs) / n
	out["durable.fs_busy_s"] = get("durable.fs").total / n
}

// hookedWorkload is where the benchmark gets control inside core.Run: the
// two callbacks the simulator makes into the workload. The meter calibrates
// there once enough work has passed, and the traced pass (tr not nil) times
// the callbacks.
type hookedWorkload struct {
	core.Workload
	tr *track
	m  *meter
}

func (w *hookedWorkload) ComputeGradients(i int) float64 {
	if w.m.due() {
		w.m.lap()
	}
	sp := w.tr.begin("nn.compute")
	loss := w.Workload.ComputeGradients(i)
	w.tr.end(sp)
	return loss
}

// Evaluate is long (tens of milliseconds on CRUDA), so it is a piece of
// its own when it is.
func (w *hookedWorkload) Evaluate() float64 {
	if w.m.due() {
		w.m.lap()
	}
	sp := w.tr.begin("harness.evaluate")
	v := w.Workload.Evaluate()
	w.tr.end(sp)
	if w.m.due() {
		w.m.lap()
	}
	return v
}

// fsStats counts what the durable store asked of its filesystem.
type fsStats struct{ writes, syncs, bytes int64 }

// tracedFS times the writes and syncs the durable store issues. It forwards
// Crash so that a simulated power cut still drops unsynced bytes.
type tracedFS struct {
	inner *durable.MemFS
	tr    *track
	stats *fsStats
}

func (f *tracedFS) MkdirAll(dir string) error              { return f.inner.MkdirAll(dir) }
func (f *tracedFS) Rename(o, n string) error               { return f.inner.Rename(o, n) }
func (f *tracedFS) Remove(name string) error               { return f.inner.Remove(name) }
func (f *tracedFS) List(dir string) ([]string, error)      { return f.inner.List(dir) }
func (f *tracedFS) Open(name string) (durable.File, error) { return f.inner.Open(name) }
func (f *tracedFS) Crash()                                 { f.inner.Crash() }

func (f *tracedFS) Create(name string) (durable.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	durable.File
	fs *tracedFS
}

func (h *tracedFile) Write(p []byte) (int, error) {
	sp := h.fs.tr.begin("durable.fs")
	n, err := h.File.Write(p)
	h.fs.tr.end(sp)
	h.fs.stats.writes++
	h.fs.stats.bytes += int64(n)
	return n, err
}

func (h *tracedFile) Sync() error {
	sp := h.fs.tr.begin("durable.fs")
	err := h.File.Sync()
	h.fs.tr.end(sp)
	h.fs.stats.syncs++
	return err
}

// fleetWorkload mirrors internal/harness/fleet.go (unexported there): a
// 6-8-4 MLP per robot whose "gradients" are cheap seeded noise, so a fleet
// run measures the sync plane and not tensor math.
type fleetWorkload struct {
	models []*nn.Sequential
	rngs   []*tensor.RNG
}

func newFleetWorkload(workers int, seed uint64) *fleetWorkload {
	fw := &fleetWorkload{}
	proto := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(seed))
	for w := 0; w < workers; w++ {
		m := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		fw.models = append(fw.models, m)
		fw.rngs = append(fw.rngs, tensor.NewRNG(seed*100003+uint64(w)*31+7))
	}
	return fw
}

func (fw *fleetWorkload) Model(w int) *nn.Sequential { return fw.models[w] }

func (fw *fleetWorkload) ComputeGradients(w int) float64 {
	r := fw.rngs[w]
	for _, g := range fw.models[w].Grads() {
		for i := range g.Data {
			g.Data[i] += float32(r.Norm() * 0.01)
		}
	}
	return 0
}

func (fw *fleetWorkload) Evaluate() float64 {
	var sum float64
	var n int
	for _, p := range fw.models[0].Params() {
		for _, v := range p.Data {
			sum += math.Abs(float64(v))
		}
		n += len(p.Data)
	}
	return sum / float64(n)
}

func (fw *fleetWorkload) Increasing() bool { return false }
