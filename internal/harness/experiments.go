package harness

import (
	"fmt"

	"rog/internal/core"
	"rog/internal/lossnet"
	"rog/internal/obs"
	"rog/internal/simnet"
	"rog/internal/trace"
)

// Scale sizes an experiment. Quick keeps benchmark runs in seconds of wall
// clock; Full matches the paper's 60–150 minute training budgets (virtual
// time — still fast, but with full checkpoint resolution).
type Scale struct {
	Name            string
	VirtualSeconds  float64 // training budget per system (virtual)
	CheckpointEvery int
	PretrainIters   int // CRUDA pretraining steps
	ObsPerBot       int // CRIMP trajectory length
	TestObs         int // CRIMP held-out poses
	MicroSeconds    float64
	// Seed derives every stream of a run: data, initialisation, channel
	// traces. Quick and Full use 1, the seed of every recorded report.
	Seed uint64
}

// Quick is the benchmark scale: the same experiments at ~1/10 duration.
var Quick = Scale{
	Name:            "quick",
	VirtualSeconds:  420,
	CheckpointEvery: 8,
	PretrainIters:   300,
	ObsPerBot:       80,
	TestObs:         6,
	MicroSeconds:    240,
	Seed:            1,
}

// Full is the paper scale: 60 minutes of virtual training per system.
var Full = Scale{
	Name:            "full",
	VirtualSeconds:  3600,
	CheckpointEvery: 25,
	PretrainIters:   500,
	ObsPerBot:       120,
	TestObs:         8,
	MicroSeconds:    240,
	Seed:            1,
}

// SystemSpec identifies one compared system.
type SystemSpec struct {
	Strategy  core.Strategy
	Threshold int
}

// Label renders "SSP-4" style names: the label core.Result.Label gives a
// run of the system.
func (s SystemSpec) Label() string {
	return (&core.Result{Strategy: s.Strategy, Threshold: s.Threshold}).Label()
}

// PaperSystems is the lineup of Figs. 1/6/7: BSP, SSP-4, SSP-20, FLOWN,
// ROG-4, ROG-20.
func PaperSystems() []SystemSpec {
	return []SystemSpec{
		{core.BSP, 0},
		{core.SSP, 4},
		{core.SSP, 20},
		{core.FLOWN, 4},
		{core.ROG, 4},
		{core.ROG, 20},
	}
}

// SensitivitySystems is the reduced lineup of Fig. 9 (the paper omits
// FLOWN there).
func SensitivitySystems() []SystemSpec {
	return []SystemSpec{{core.BSP, 0}, {core.SSP, 4}, {core.ROG, 4}}
}

// EndToEndOptions configures one end-to-end comparison run.
type EndToEndOptions struct {
	Paradigm   string // "cruda" or "crimp"
	Env        trace.Env
	Workers    int
	BatchScale int
	Scale      Scale
	Systems    []SystemSpec
	// ConvMLP (CRUDA) / GridMap (CRIMP) select the architecture-faithful
	// model variants for the ext-convmlp / ext-gridmap experiments.
	ConvMLP bool
	GridMap bool
	// Faults injects the same virtual-time fault schedule (worker crashes,
	// link blackouts, flaps) into every compared system's run.
	Faults simnet.FaultSchedule
	// Loss injects the same packet-loss channel model into every compared
	// system's run; Reliability selects how lost rows are recovered
	// (selective: only the Must prefix retransmits; all: everything does).
	Loss        lossnet.Spec
	Reliability lossnet.Reliability
}

// paradigmConfig returns the per-paradigm timing constants: compute time
// per iteration and the paper-equivalent compressed model size the channel
// is scaled to (Sec. VI: 2.1 MB for ConvMLP/CRUDA, 0.76 MB for
// nice-slam/CRIMP; compute 2.18 s + ≈0.46 s compression on the Jetson).
func paradigmConfig(paradigm string) (computeSeconds, paperModelBytes float64) {
	if paradigm == "crimp" {
		return 1.4, 0.76e6
	}
	return 2.64, 2.1e6
}

// NewWorkload builds a fresh workload for one system run (every system
// must start from the same pretrained state, so each gets its own copy).
func (o EndToEndOptions) NewWorkload() core.Workload {
	if o.Paradigm == "crimp" {
		opts := DefaultCRIMPOptions()
		opts.Workers = o.Workers
		opts.Seed = o.Scale.Seed
		opts.ObsPerBot = o.Scale.ObsPerBot
		opts.TestObs = o.Scale.TestObs
		opts.UseGridMap = o.GridMap
		return NewCRIMP(opts)
	}
	opts := DefaultCRUDAOptions()
	opts.Workers = o.Workers
	opts.Seed = o.Scale.Seed
	opts.PretrainIters = o.Scale.PretrainIters
	opts.UseConvMLP = o.ConvMLP
	if o.BatchScale > 1 {
		opts.BatchScale = o.BatchScale
	}
	return NewCRUDA(opts)
}

// Config is the run every experiment starts from: system sys with the
// paradigm's timing constants and the harness-wide optimizer settings.
func (o EndToEndOptions) Config(sys SystemSpec) core.Config {
	computeSec, paperBytes := paradigmConfig(o.Paradigm)
	return core.Config{
		Strategy:          sys.Strategy,
		Workers:           o.Workers,
		Threshold:         sys.Threshold,
		Env:               o.Env,
		Seed:              o.Scale.Seed,
		ComputeSeconds:    computeSec,
		BatchScale:        float64(max(1, o.BatchScale)),
		PaperModelBytes:   paperBytes,
		LR:                0.025,
		Momentum:          0.9,
		LRDecayIters:      600,
		MaxVirtualSeconds: o.Scale.VirtualSeconds,
		CheckpointEvery:   o.Scale.CheckpointEvery,
		Faults:            o.Faults,
		Loss:              o.Loss,
		Reliability:       o.Reliability,
	}
}

// RunEndToEnd executes every system on an identical workload and network
// seed, returning one Result per system in input order.
func RunEndToEnd(o EndToEndOptions) ([]*core.Result, error) {
	results, _, err := runLineup(o)
	return results, err
}

// runLineup is RunEndToEnd with each system's critical-path report beside
// its result.
func runLineup(o EndToEndOptions) ([]*core.Result, []*obs.CritReport, error) {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Scale.Seed == 0 {
		o.Scale.Seed = 1
	}
	if len(o.Systems) == 0 {
		o.Systems = PaperSystems()
	}
	var results []*core.Result
	var crits []*obs.CritReport
	for _, sys := range o.Systems {
		res, crit, err := run(o.Config(sys), o.NewWorkload())
		if err != nil {
			return nil, nil, fmt.Errorf("harness: %s: %w", sys.Label(), err)
		}
		results, crits = append(results, res), append(crits, crit)
	}
	return results, crits, nil
}

// run is core.Run under the harness-owned invariants, so every cell of every
// experiment is held to them: the trace analyser, teed onto cfg.Trace (the
// simnet is bit-identical traced or untraced), finds no pairing error, and
// no merge, direct or through an aggregator, leads the slowest worker by
// more than the staleness bound (the threshold; 1 for BSP's barrier). The
// analyser's critical-path report comes back beside the result.
func run(cfg core.Config, wl core.Workload) (*core.Result, *obs.CritReport, error) {
	crit := obs.NewCritPath()
	cfg.Trace = obs.Tee(cfg.Trace, crit)
	res, err := core.Run(cfg, wl)
	if err != nil {
		return nil, nil, err
	}
	rep := crit.Report()
	if errs := rep.Errors; len(errs) > 0 {
		return nil, nil, fmt.Errorf("%d structural trace error(s), first: %s", len(errs), errs[0])
	}
	bound := int64(cfg.Threshold)
	if cfg.Strategy == core.BSP {
		bound = 1
	}
	if res.MaxStaleness > bound {
		return nil, nil, fmt.Errorf("staleness bound violated: max lead %d > %d", res.MaxStaleness, bound)
	}
	return res, rep, nil
}
