package harness

import (
	"fmt"
	"sort"
	"strings"

	"rog/internal/atp"
	"rog/internal/core"
	"rog/internal/energy"
	"rog/internal/lossnet"
	"rog/internal/metrics"
	"rog/internal/rowsync"
	"rog/internal/simnet"
	"rog/internal/trace"
)

// Experiment is one reproducible unit of the paper's evaluation: a figure,
// a table, or an ablation. The registry row is its only definition: text
// output, JSON export, seed replication and drift all resolve an id here and
// read the one Report its Run produced.
type Experiment struct {
	ID    string
	Title string
	// Options is set on the plain end-to-end comparisons: the lineup Run
	// executes under banner, and what `rogbench -seeds` replicates. Every
	// other experiment brings its own run.
	Options *EndToEndOptions
	banner  string
	run     func(Scale) (*Report, error)
	// structured marks the experiments whose Report carries the JSON view.
	structured bool
}

// Registry lists every experiment, in paper order.
func Registry() []Experiment {
	small := SensitivitySystems()
	return []Experiment{
		{ID: "fig1", Title: "CRUDA outdoors: time composition, statistical efficiency, accuracy vs time, energy (Fig. 1)",
			banner: "Fig. 1: CRUDA, outdoors", Options: &EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor}, structured: true},
		{ID: "fig3", Title: "Bandwidth instability of robotic IoT networks (Fig. 3)", run: runFig3},
		{ID: "fig6", Title: "CRUDA indoors: end-to-end comparison (Fig. 6)",
			banner: "Fig. 6: CRUDA, indoors", Options: &EndToEndOptions{Paradigm: "cruda", Env: trace.Indoor}, structured: true},
		{ID: "fig7", Title: "CRIMP outdoors: trajectory error and energy (Fig. 7)",
			banner: "Fig. 7: CRIMP, outdoors", Options: &EndToEndOptions{Paradigm: "crimp", Env: trace.Outdoor}, structured: true},
		{ID: "fig8", Title: "Micro-event analysis: bandwidth vs transmission rate vs staleness (Fig. 8)", run: runFig8},
		{ID: "fig9batch", Title: "Sensitivity to batch size x1/x2/x4 (Fig. 9 left)", run: runFig9Batch},
		{ID: "fig9workers", Title: "Sensitivity to worker count 4/6/8 (Fig. 9 right)", run: runFig9Workers},
		{ID: "fig10", Title: "Sensitivity to ROG staleness threshold 4/20/30/40 (Fig. 10)", run: runFig10},
		{ID: "table1", Title: "MTA values under different thresholds (Table I)", run: runTable1},
		{ID: "table2", Title: "Default experimental setup (Table II)", run: runTable2},
		{ID: "table3", Title: "Power in different states (Table III)", run: runTable3},
		{ID: "ablation-granularity", Title: "Granularity ablation: rows vs layers vs elements (Sec. III-A)", run: runAblationGranularity},
		{ID: "ablation-importance", Title: "Importance-metric ablation: magnitude vs staleness terms (Algo. 3)", run: runAblationImportance},
		{ID: "ablation-speculative", Title: "Speculative transmission vs per-row timeout checks (Sec. III-A)", run: runAblationSpeculative},
		{ID: "churn", Title: "Robustness: accuracy vs time under worker crash, rejoin, and blackout (membership churn)", run: runChurn, structured: true},
		{ID: "ext-loss", Title: "Extension: bursty packet loss × selective reliability (lossnet channel)", run: runExtLoss, structured: true},
		{ID: "ext-recovery", Title: "Extension: crash-consistent checkpointing — snapshot interval vs recovery cost (servercrash)", run: runExtRecovery, structured: true},
		{ID: "ext-pipeline", Title: "Future-work extension: pipelined computation and communication (Sec. VI-D)", run: runExtPipeline},
		// DSSP is the dynamic-staleness baseline after Zhao et al.: its
		// threshold adapts inside [2, Threshold] from the observed iteration
		// spread. The lineup isolates what dynamic staleness alone buys over
		// fixed SSP, and what row granularity (ROG) adds at the same cap.
		{ID: "ext-dssp", Title: "Extension: dynamic-staleness SSP (Zhao et al.) vs fixed SSP and ROG",
			banner: "Extension: dynamic-staleness SSP (DSSP) vs fixed SSP and ROG, CRUDA outdoors",
			Options: &EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor,
				Systems: []SystemSpec{{core.SSP, 4}, {core.SSP, 20}, {core.DSSP, 20}, {core.ROG, 20}}}},
		{ID: "fleet", Title: "Fleet scaling: sharded parameter service × edge aggregation, up to 256 robots", run: runFleet, structured: true},
		{ID: "serve", Title: "Inference tier: bounded-staleness serving over versioned snapshots — latency × staleness sweep", run: runServe, structured: true},
		{ID: "ext-convmlp", Title: "Architecture-faithful CRUDA: ConvMLP stem + MLP head on synthetic images",
			banner:  "Extension: ConvMLP (conv stem + MLP head) on image CRUDA, outdoors",
			Options: &EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Systems: small, ConvMLP: true}},
		{ID: "ext-gridmap", Title: "Architecture-faithful CRIMP: NICE-SLAM-style feature-grid map",
			banner:  "Extension: NICE-SLAM-style feature-grid map on CRIMP, outdoors",
			Options: &EndToEndOptions{Paradigm: "crimp", Env: trace.Outdoor, Systems: small, GridMap: true}},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// JSONExperimentIDs lists the ids whose report has a structured view, in
// registry order.
func JSONExperimentIDs() []string {
	var ids []string
	for _, e := range Registry() {
		if e.structured {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Run executes the experiment once at scale s.
func (e Experiment) Run(s Scale) (*Report, error) {
	run := e.run
	if run == nil {
		run = e.compare
	}
	rep, err := run(s)
	if err != nil {
		return nil, err
	}
	rep.Experiment, rep.Scale = e.ID, s.Name
	return rep, nil
}

// compare runs a plain comparison: the lineup in Options, rendered as the
// four panels every end-to-end figure shares.
func (e Experiment) compare(s Scale) (*Report, error) {
	o := *e.Options
	o.Scale = s
	rep := structured(e.banner, o)
	var results []*core.Result
	var err error
	if e.structured {
		results, err = runStructured(o, rep)
	} else {
		results, err = RunEndToEnd(o)
	}
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n\n", e.banner)
	b.WriteString("-- average time composition of a training iteration --\n")
	b.WriteString(CompositionTable(results))
	b.WriteString("\n-- statistical efficiency (quality vs iteration) --\n")
	b.WriteString(SeriesByIteration(results, iterStep(results)))
	b.WriteString("\n-- quality vs wall-clock time --\n")
	b.WriteString(SeriesByTime(results, s.VirtualSeconds/8))
	b.WriteString("\n-- energy consumption --\n")
	b.WriteString(EnergyTable(results, rep.Increasing))
	if sum := Summary(results, rep.Increasing); sum != "" {
		b.WriteString("\n" + sum + "\n")
	}
	rep.Text = b.String()
	return rep, nil
}

// text wraps a rendering that has no structured view.
func text(b *strings.Builder) (*Report, error) { return &Report{Text: b.String()}, nil }

func iterStep(results []*core.Result) int {
	end := 0
	for _, r := range results {
		if it := r.Series.Last().Iter; it > end {
			end = it
		}
	}
	return max(1, end/8)
}

func runFig3(Scale) (*Report, error) {
	var b strings.Builder
	b.WriteString("== Fig. 3: instability of robotic IoT networks ==\n\n")
	rows := make([][]string, 0, 2)
	for _, env := range []trace.Env{trace.Indoor, trace.Outdoor} {
		tr := trace.GenerateEnv(env, 300, 42)
		rows = append(rows, []string{
			env.String(),
			fmt.Sprintf("%.1f", tr.Mean()),
			fmt.Sprintf("%.2f", tr.MeanFluctuationInterval(0.2)),
			fmt.Sprintf("%.2f", tr.MeanFluctuationInterval(0.4)),
			fmt.Sprintf("%.1f%%", 100*tr.FractionBelow(5)),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"env", "mean Mbps", "s per ≥20% fluct", "s per ≥40% fluct", "time <5 Mbps"},
		rows,
	))
	b.WriteString("\npaper: ≥20% fluctuation every ≈0.4s, ≥40% every ≈1.2s; outdoors often fades to ≈0 Mbps\n")
	return text(&b)
}

func runFig8(s Scale) (*Report, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor,
		Scale:       Scale{Name: "micro", VirtualSeconds: s.MicroSeconds, CheckpointEvery: 50, PretrainIters: s.PretrainIters},
		Systems:     []SystemSpec{{core.ROG, 4}},
		RecordMicro: true,
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("== Fig. 8: real-time bandwidth vs ROG transmission rate vs staleness (worker 1) ==\n\n")
	b.WriteString(MicroTable(results[0].Micro, 40))
	return text(&b)
}

func runFig9Batch(s Scale) (*Report, error) {
	return runFig9(s, "== Fig. 9 (left): batch-size sensitivity, CRUDA outdoors ==", "-- batch x%d --\n",
		[]int{1, 2, 4}, func(o *EndToEndOptions, scale int) { o.BatchScale = scale })
}

func runFig9Workers(s Scale) (*Report, error) {
	return runFig9(s, "== Fig. 9 (right): worker-count sensitivity, CRUDA outdoors ==", "-- %d workers --\n",
		[]int{4, 6, 8}, func(o *EndToEndOptions, n int) { o.Workers = n })
}

// runFig9 sweeps one knob of the reduced lineup over values.
func runFig9(s Scale, banner, heading string, values []int, set func(*EndToEndOptions, int)) (*Report, error) {
	var b strings.Builder
	b.WriteString(banner + "\n\n")
	for _, v := range values {
		o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Systems: SensitivitySystems()}
		set(&o, v)
		results, err := RunEndToEnd(o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, heading, v)
		b.WriteString(CompositionTable(results))
		b.WriteString(EnergyTable(results, true))
		b.WriteString("\n")
	}
	return text(&b)
}

func runFig10(s Scale) (*Report, error) {
	systems := []SystemSpec{{core.ROG, 4}, {core.ROG, 20}, {core.ROG, 30}, {core.ROG, 40}}
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Systems: systems,
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("== Fig. 10: ROG threshold sensitivity ==\n\n")
	b.WriteString("-- accuracy vs wall-clock time --\n")
	b.WriteString(SeriesByTime(results, s.VirtualSeconds/8))
	b.WriteString("\n-- statistical efficiency --\n")
	b.WriteString(SeriesByIteration(results, iterStep(results)))
	return text(&b)
}

func runTable1(Scale) (*Report, error) {
	var b strings.Builder
	b.WriteString("== Table I: MTA values under different thresholds ==\n\n")
	table := atp.MTATable()
	ths := make([]int, 0, len(table))
	for t := range table {
		ths = append(ths, t)
	}
	sort.Ints(ths)
	paper := map[int]float64{2: 0.5, 3: 0.38, 4: 0.32, 5: 0.28, 6: 0.25, 7: 0.22, 8: 0.2}
	rows := make([][]string, 0, len(ths))
	for _, t := range ths {
		rows = append(rows, []string{
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%.2f", table[t]),
			fmt.Sprintf("%.2f", paper[t]),
		})
	}
	b.WriteString(metrics.FormatTable([]string{"threshold", "MTA (computed)", "MTA (paper)"}, rows))
	return text(&b)
}

func runTable2(Scale) (*Report, error) {
	var b strings.Builder
	b.WriteString("== Table II: default setup ==\n\n")
	b.WriteString(metrics.FormatTable(
		[]string{"parameter", "value"},
		[][]string{
			{"workers", "4"},
			{"batch size (robot)", "24"},
			{"learning rate", "0.025, 1/(1+n/600) decay (paper: 1e-6 for ConvMLP)"},
			{"compute + compression / iter", "2.64 s (2.18 s + 0.46 s)"},
			{"CRUDA paper-equivalent model", "2.1 MB compressed"},
			{"CRIMP paper-equivalent model", "0.76 MB compressed"},
			{"importance coefficients f1/f2", "1 / 1"},
		},
	))
	return text(&b)
}

func runTable3(Scale) (*Report, error) {
	m := energy.PaperModel()
	var b strings.Builder
	b.WriteString("== Table III: power in different states (W) ==\n\n")
	b.WriteString(metrics.FormatTable(
		[]string{"state", "power (W)", "paper (W)"},
		[][]string{
			{"computation", fmt.Sprintf("%.2f", m.Watts[energy.Compute]), "13.35"},
			{"communication", fmt.Sprintf("%.2f", m.Watts[energy.Communicate]), "4.25"},
			{"stall", fmt.Sprintf("%.2f", m.Watts[energy.Stall]), "4.04"},
		},
	))
	return text(&b)
}

// ablationScale shortens a Scale for ablation sweeps.
func ablationScale(s Scale) Scale {
	s.VirtualSeconds /= 2
	return s
}

// rog4CRUDA is the run the ablations and the pipeline extension each vary
// one knob of: ROG-4 on CRUDA outdoors, four robots, seed 1, with a fresh
// workload.
func rog4CRUDA(s Scale) (core.Config, core.Workload) {
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Seed: 1, Workers: 4}
	return o.Config(SystemSpec{core.ROG, 4}), o.NewWorkload()
}

func runAblationGranularity(s Scale) (*Report, error) {
	s = ablationScale(s)
	var b strings.Builder
	b.WriteString("== Ablation: synchronization granularity (ROG-4, CRUDA outdoors) ==\n\n")
	var rows [][]string
	// All granularities run on the same channel: scale it to the row
	// partition's wire size, so finer granularity genuinely pays its
	// index overhead (Sec. III-A's management-cost argument).
	_, refWL := rog4CRUDA(s)
	refBytes := float64(rowsync.NewPartition(refWL.Model(0).Params(), rowsync.Rows).TotalWireSize())
	for _, g := range []rowsync.Granularity{rowsync.Layers, rowsync.Rows, rowsync.Elements} {
		cfg, wl := rog4CRUDA(s)
		cfg.ScaleReferenceBytes = refBytes
		cfg.Granularity = g
		res, err := run(cfg, wl)
		if err != nil {
			return nil, err
		}
		part := rowsync.NewPartition(wl.Model(0).Params(), g)
		rows = append(rows, []string{
			g.String(),
			fmt.Sprintf("%d", part.NumUnits()),
			fmt.Sprintf("%.1f%%", 100*float64(part.IndexOverhead())/float64(part.TotalWireSize())),
			fmt.Sprintf("%.2f", res.Composition.Stall),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%.4f", res.FinalValue),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"granularity", "units", "index overhead", "stall(s)", "iterations", "final acc"},
		rows,
	))
	b.WriteString("\nrows trade index overhead against scheduling flexibility (Sec. III-A)\n")
	return text(&b)
}

func runAblationImportance(s Scale) (*Report, error) {
	s = ablationScale(s)
	var b strings.Builder
	b.WriteString("== Ablation: importance-metric terms (ROG-4, CRUDA outdoors) ==\n\n")
	variants := []struct {
		name string
		c    atp.Coefficients
	}{
		{"magnitude only (f2=0)", atp.Coefficients{F1: 1, F2: 0}},
		{"staleness only (f1=0)", atp.Coefficients{F1: 0, F2: 1}},
		{"both (paper)", atp.Coefficients{F1: 1, F2: 1}},
	}
	var rows [][]string
	for _, v := range variants {
		cfg, wl := rog4CRUDA(s)
		cfg.Coeff = v.c
		res, err := run(cfg, wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.2f", res.Composition.Stall),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%.4f", res.FinalValue),
		})
	}
	b.WriteString(metrics.FormatTable([]string{"variant", "stall(s)", "iterations", "final acc"}, rows))
	return text(&b)
}

func runExtPipeline(s Scale) (*Report, error) {
	var b strings.Builder
	b.WriteString("== Extension: pipelined compute/communication (ROG-4, CRUDA outdoors) ==\n\n")
	var rows [][]string
	for _, pipe := range []bool{false, true} {
		cfg, wl := rog4CRUDA(s)
		cfg.Pipeline = pipe
		res, err := run(cfg, wl)
		if err != nil {
			return nil, err
		}
		name := "sequential (paper)"
		if pipe {
			name = "pipelined (future work)"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%.2f", res.Composition.Total()),
			fmt.Sprintf("%.4f", res.FinalValue),
			fmt.Sprintf("%.0f", res.TotalJoules),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"variant", "iterations", "iter span(s)", "final acc", "total J"},
		rows,
	))
	b.WriteString("\noverlapping hides communication behind the next iteration's compute\n")
	return text(&b)
}

// runChurn is the robustness experiment: the same crash/rejoin/blackout
// schedule is injected into BSP, SSP and ROG runs, and the report shows who
// keeps learning through it. Worker 1 crashes a quarter of the way in and
// rejoins at the half-way mark; worker 2's link then blacks out for an
// eighth of the run (from 5/8) without any membership change.
func runChurn(s Scale) (*Report, error) {
	t := s.VirtualSeconds
	spec := fmt.Sprintf("crash:1@%.0f+%.0f,blackout:2@%.0f+%.0f", t/4, t/4, 5*t/8, t/8)
	faults, err := simnet.ParseFaultSchedule(spec)
	if err != nil {
		return nil, err
	}
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: SensitivitySystems(), Faults: faults}
	rep := structured("Robustness: membership churn", o)
	rep.Faults = spec
	results, err := runStructured(o, rep)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		rep.Systems[i].Churn = &r.Churn
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Robustness: membership churn (CRUDA outdoors, faults %s) ==\n\n", spec)
	b.WriteString("-- accuracy vs wall-clock time --\n")
	b.WriteString(SeriesByTime(results, s.VirtualSeconds/8))
	b.WriteString("\n-- average time composition of a training iteration --\n")
	b.WriteString(CompositionTable(results))
	b.WriteString("\n-- membership churn --\n")
	b.WriteString(ChurnTable(results))
	if sum := Summary(results, true); sum != "" {
		b.WriteString("\n" + sum + "\n")
	}
	b.WriteString("\ncrashed rows stop pinning the staleness minimum; the rejoin replays the accumulated averaged rows\n")
	rep.Text = b.String()
	return rep, nil
}

// runExtLoss is the loss-tolerance experiment: the same CRUDA workload under
// a bursty Gilbert–Elliott channel at two loss rates, comparing BSP (whole-
// model plans have no best-effort class, so every loss retransmits), ROG with
// selective reliability (only the Must prefix retransmits; best-effort losses
// fold their gradients back and ride the next push) and ROG forced
// all-reliable. Selective completes the same workload with strictly fewer
// retransmitted bytes — the acceptance claim of the lossnet subsystem. The
// structured view has one entry per cell, labelled "ROG-4 ge:0.05 selective"
// style.
func runExtLoss(s Scale) (*Report, error) {
	s = ablationScale(s)
	modes := []struct {
		label string
		sys   SystemSpec
		rel   lossnet.Reliability
	}{
		{"BSP", SystemSpec{core.BSP, 0}, lossnet.Selective},
		{"ROG-4 selective", SystemSpec{core.ROG, 4}, lossnet.Selective},
		{"ROG-4 all-reliable", SystemSpec{core.ROG, 4}, lossnet.AllReliable},
	}
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s}
	rep := structured("Extension: packet loss × selective reliability", o)
	var b strings.Builder
	b.WriteString("== Extension: packet loss × selective reliability (CRUDA outdoors) ==\n\n")
	var all []*core.Result
	var labels, cells []string // text rows (per rate) / structured entries
	for _, rate := range []float64{0.02, 0.05} {
		fmt.Fprintf(&b, "-- Gilbert–Elliott %.0f%% mean loss, %d-packet mean bursts --\n",
			100*rate, lossnet.DefaultBurst)
		o.Loss = lossnet.Spec{Kind: "ge", Rate: rate}
		for _, m := range modes {
			o.Systems, o.Reliability = []SystemSpec{m.sys}, m.rel
			rs, err := RunEndToEnd(o)
			if err != nil {
				return nil, err
			}
			labels = append(labels, m.label)
			all = append(all, rs[0])
			cells = append(cells, fmt.Sprintf("%s %s %s", m.sys.Label(), o.Loss, m.rel))
		}
		n := len(all) - len(modes)
		b.WriteString(LossTable(labels[n:], all[n:]))
		b.WriteString("\n")
	}
	b.WriteString("selective reliability retransmits only the Must prefix (MTA floor + RSP-forced rows);\n")
	b.WriteString("best-effort losses fold back into the local accumulator and ride the next push\n")
	rep.fill(all)
	for i, r := range all {
		rep.Systems[i].Label, rep.Systems[i].Loss = cells[i], &r.Loss
	}
	rep.Text = b.String()
	return rep, nil
}

func runAblationSpeculative(s Scale) (*Report, error) {
	s = ablationScale(s)
	var b strings.Builder
	b.WriteString("== Ablation: speculative transmission vs per-row timeout checks (ROG-4) ==\n\n")
	variants := []struct {
		name  string
		check float64
	}{
		{"speculative (paper)", 0},
		{"per-row check 5ms", 0.005},
		{"per-row check 20ms", 0.020},
	}
	var rows [][]string
	for _, v := range variants {
		cfg, wl := rog4CRUDA(s)
		cfg.PerUnitCheckSeconds = v.check
		res, err := run(cfg, wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.2f", res.Composition.Comm),
			fmt.Sprintf("%.2f", res.Composition.Total()),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%.4f", res.FinalValue),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"variant", "comm(s)", "iter total(s)", "iterations", "final acc"},
		rows,
	))
	b.WriteString("\ninserting judgements between rows wastes airtime the speculative design reclaims\n")
	return text(&b)
}
