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
	run   func(Scale) (*Report, error)
}

// Registry lists every experiment, in paper order.
func Registry() []Experiment {
	small := SensitivitySystems()
	return []Experiment{
		{ID: "fig1", Title: "CRUDA outdoors: time composition, statistical efficiency, accuracy vs time, energy (Fig. 1)",
			run: compare("Fig. 1: CRUDA, outdoors", EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor})},
		{ID: "fig3", Title: "Bandwidth instability of robotic IoT networks (Fig. 3)", run: runFig3},
		{ID: "fig6", Title: "CRUDA indoors: end-to-end comparison (Fig. 6)",
			run: compare("Fig. 6: CRUDA, indoors", EndToEndOptions{Paradigm: "cruda", Env: trace.Indoor})},
		{ID: "fig7", Title: "CRIMP outdoors: trajectory error and energy (Fig. 7)",
			run: compare("Fig. 7: CRIMP, outdoors", EndToEndOptions{Paradigm: "crimp", Env: trace.Outdoor})},
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
		{ID: "churn", Title: "Robustness: accuracy vs time under worker crash, rejoin, and blackout (membership churn)", run: runChurn},
		{ID: "ext-loss", Title: "Extension: bursty packet loss × selective reliability (lossnet channel)", run: runExtLoss},
		{ID: "ext-recovery", Title: "Extension: crash-consistent checkpointing — snapshot interval vs recovery cost (servercrash)", run: runExtRecovery},
		{ID: "ext-pipeline", Title: "Future-work extension: pipelined computation and communication (Sec. VI-D)", run: runExtPipeline},
		{ID: "fleet", Title: "Fleet scaling: sharded parameter service × edge aggregation, up to 256 robots", run: runFleet},
		{ID: "serve", Title: "Inference tier: bounded-staleness serving over versioned snapshots — latency × staleness sweep", run: runServe},
		{ID: "ext-convmlp", Title: "Architecture-faithful CRUDA: ConvMLP stem + MLP head on synthetic images",
			run: compare("Extension: ConvMLP (conv stem + MLP head) on image CRUDA, outdoors",
				EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Systems: small, ConvMLP: true})},
		{ID: "ext-gridmap", Title: "Architecture-faithful CRIMP: NICE-SLAM-style feature-grid map",
			run: compare("Extension: NICE-SLAM-style feature-grid map on CRIMP, outdoors",
				EndToEndOptions{Paradigm: "crimp", Env: trace.Outdoor, Systems: small, GridMap: true})},
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

// Run executes the experiment once at scale s. A zero s.Seed reads as 1.
func (e Experiment) Run(s Scale) (*Report, error) {
	if s.Seed == 0 {
		s.Seed = 1
	}
	rep, err := e.run(s)
	if err != nil {
		return nil, err
	}
	rep.Experiment, rep.Scale = e.ID, s.Name
	return rep, nil
}

// compare is a plain comparison: the lineup in opts, rendered under banner
// as the four panels every end-to-end figure shares.
func compare(banner string, opts EndToEndOptions) func(Scale) (*Report, error) {
	return func(s Scale) (*Report, error) {
		o := opts
		o.Scale = s
		rep, err := lineup(banner, o)
		if err != nil {
			return nil, err
		}
		sys := rep.Systems
		var b strings.Builder
		fmt.Fprintf(&b, "== %s ==\n\n", banner)
		b.WriteString("-- average time composition of a training iteration --\n")
		b.WriteString(compositionTable(sys))
		b.WriteString("\n-- statistical efficiency (quality vs iteration) --\n")
		b.WriteString(seriesByIteration(sys, iterStep(sys)))
		b.WriteString("\n-- quality vs wall-clock time --\n")
		b.WriteString(seriesByTime(sys, s.VirtualSeconds/8))
		b.WriteString("\n-- energy consumption --\n")
		b.WriteString(energyTable(sys, rep.Target, rep.Increasing))
		if sum := summary(sys, rep.Increasing); sum != "" {
			b.WriteString("\n" + sum + "\n")
		}
		rep.Text = b.String()
		return rep, nil
	}
}

// text wraps a rendering that trains nothing, so has no systems.
func text(b *strings.Builder) (*Report, error) { return &Report{Text: b.String()}, nil }

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
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Workers: 4,
		Scale: Scale{Name: "micro", VirtualSeconds: s.MicroSeconds, CheckpointEvery: 50, PretrainIters: s.PretrainIters, Seed: s.Seed}}
	cfg := o.Config(SystemSpec{core.ROG, 4})
	cfg.RecordMicro = true
	res, _, err := run(cfg, o.NewWorkload())
	if err != nil {
		return nil, fmt.Errorf("harness: ROG-4: %w", err)
	}
	rep := newReport("Fig. 8: real-time bandwidth vs ROG transmission rate vs staleness (worker 1)", o)
	rep.fill([]*core.Result{res})
	rep.Text = "== " + rep.Title + " ==\n\n" + microTable(res.Micro, 40)
	return rep, nil
}

func runFig9Batch(s Scale) (*Report, error) {
	return runFig9(s, "== Fig. 9 (left): batch-size sensitivity, CRUDA outdoors ==", "-- batch x%d --\n",
		[]int{1, 2, 4}, func(o *EndToEndOptions, scale int) { o.BatchScale = scale })
}

func runFig9Workers(s Scale) (*Report, error) {
	return runFig9(s, "== Fig. 9 (right): worker-count sensitivity, CRUDA outdoors ==", "-- %d workers --\n",
		[]int{4, 6, 8}, func(o *EndToEndOptions, n int) { o.Workers = n })
}

// runFig9 sweeps one knob of the reduced lineup over values. A cell is
// labelled by its system and its heading, "ROG-4 batch x2", "BSP 6 workers";
// under the heading its rows read by system alone.
func runFig9(s Scale, banner, heading string, values []int, set func(*EndToEndOptions, int)) (*Report, error) {
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Systems: SensitivitySystems()}
	rep := newReport(strings.Trim(banner, "= "), o)
	names := make([]string, len(o.Systems))
	for i, sys := range o.Systems {
		names[i] = sys.Label()
	}
	var b strings.Builder
	b.WriteString(banner + "\n\n")
	for _, v := range values {
		oo := o
		set(&oo, v)
		results, err := RunEndToEnd(oo)
		if err != nil {
			return nil, err
		}
		cell := fmt.Sprintf(heading, v)
		labels := make([]string, len(names))
		for i, name := range names {
			labels[i] = name + " " + strings.Trim(cell, "- \n")
		}
		rep.fillGroup(results, labels)
		group := named(rep.Systems[len(rep.Systems)-len(names):], names)
		b.WriteString(cell)
		b.WriteString(compositionTable(group))
		b.WriteString(energyTable(group, *group[0].Target, rep.Increasing))
		b.WriteString("\n")
	}
	rep.Text = b.String()
	return rep, nil
}

func runFig10(s Scale) (*Report, error) {
	o := EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: []SystemSpec{{core.ROG, 4}, {core.ROG, 20}, {core.ROG, 30}, {core.ROG, 40}}}
	rep := newReport("Fig. 10: ROG threshold sensitivity", o)
	results, err := RunEndToEnd(o)
	if err != nil {
		return nil, err
	}
	rep.fill(results)
	var b strings.Builder
	b.WriteString("== Fig. 10: ROG threshold sensitivity ==\n\n")
	b.WriteString("-- accuracy vs wall-clock time --\n")
	b.WriteString(seriesByTime(rep.Systems, s.VirtualSeconds/8))
	b.WriteString("\n-- statistical efficiency --\n")
	b.WriteString(seriesByIteration(rep.Systems, iterStep(rep.Systems)))
	rep.Text = b.String()
	return rep, nil
}

func runTable1(Scale) (*Report, error) {
	var b strings.Builder
	b.WriteString("== Table I: MTA values under different thresholds ==\n\n")
	mta := atp.MTATable()
	ths := make([]int, 0, len(mta))
	for t := range mta {
		ths = append(ths, t)
	}
	sort.Ints(ths)
	paper := map[int]float64{2: 0.5, 3: 0.38, 4: 0.32, 5: 0.28, 6: 0.25, 7: 0.22, 8: 0.2}
	b.WriteString(table(ths,
		col("threshold", "%d", func(t int) any { return t }),
		col("MTA (computed)", "%.2f", func(t int) any { return mta[t] }),
		col("MTA (paper)", "%.2f", func(t int) any { return paper[t] })))
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

// rog4 is the run the ablations and the pipeline extension each vary one
// knob of: ROG-4 on CRUDA outdoors, four robots.
func rog4(s Scale) EndToEndOptions {
	return EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Workers: 4}
}

// rog4Variants runs rog4 once per named variant, each on a fresh workload
// with vary applied to its config. The report has one system per variant,
// labelled "ROG-4 <name>", and beside it those systems named <name>, as
// the variant tables print them.
func rog4Variants(s Scale, title string, names []string, vary func(i int, cfg *core.Config)) (*Report, []SystemReport, error) {
	o := rog4(s)
	rep := newReport(title, o)
	var results []*core.Result
	var labels []string
	for i, name := range names {
		cfg := o.Config(SystemSpec{core.ROG, 4})
		vary(i, &cfg)
		labels = append(labels, "ROG-4 "+name)
		res, _, err := run(cfg, o.NewWorkload())
		if err != nil {
			return nil, nil, fmt.Errorf("harness: %s: %w", labels[i], err)
		}
		results = append(results, res)
	}
	rep.fill(results, labels...)
	return rep, named(rep.Systems, names), nil
}

// variantCol names a variant table's rows.
var variantCol = systemCol.as("variant")

func runAblationGranularity(s Scale) (*Report, error) {
	grans := []rowsync.Granularity{rowsync.Layers, rowsync.Rows, rowsync.Elements}
	names := []string{"layers", "rows", "elements"}
	s = ablationScale(s)
	// All granularities run on one channel: core scales it to the row
	// partition's wire size.
	rep, variants, err := rog4Variants(s, "Ablation: synchronization granularity (ROG-4, CRUDA outdoors)",
		names, func(i int, cfg *core.Config) { cfg.Granularity = grans[i] })
	if err != nil {
		return nil, err
	}
	// The partition columns come from the model, not the runs.
	params := rog4(s).NewWorkload().Model(0).Params()
	parts := map[string]*rowsync.Partition{}
	for i, name := range names {
		parts[name] = rowsync.NewPartition(params, grans[i])
	}
	rep.Text = "== " + rep.Title + " ==\n\n" + table(variants, variantCol.as("granularity"),
		col("units", "%d", func(s SystemReport) any { return parts[s.Label].NumUnits() }),
		col("index overhead", "%.1f%%", func(s SystemReport) any {
			p := parts[s.Label]
			return 100 * float64(p.IndexOverhead()) / float64(p.TotalWireSize())
		}),
		stallCol, iterationsCol, finalCol.as("final acc"),
	) + "\nrows trade index overhead against scheduling flexibility (Sec. III-A)\n"
	return rep, nil
}

func runAblationImportance(s Scale) (*Report, error) {
	names := []string{"magnitude only (f2=0)", "staleness only (f1=0)", "both (paper)"}
	coeffs := []atp.Coefficients{{F1: 1, F2: 0}, {F1: 0, F2: 1}, {F1: 1, F2: 1}}
	rep, variants, err := rog4Variants(ablationScale(s), "Ablation: importance-metric terms (ROG-4, CRUDA outdoors)",
		names, func(i int, cfg *core.Config) { cfg.Coeff = coeffs[i] })
	if err != nil {
		return nil, err
	}
	rep.Text = "== " + rep.Title + " ==\n\n" +
		table(variants, variantCol, stallCol, iterationsCol, finalCol.as("final acc"))
	return rep, nil
}

func runExtPipeline(s Scale) (*Report, error) {
	names := []string{"sequential (paper)", "pipelined (future work)"}
	rep, variants, err := rog4Variants(s, "Extension: pipelined compute/communication (ROG-4, CRUDA outdoors)",
		names, func(i int, cfg *core.Config) { cfg.Pipeline = i == 1 })
	if err != nil {
		return nil, err
	}
	rep.Text = "== " + rep.Title + " ==\n\n" +
		table(variants, variantCol, iterationsCol, iterTotalCol.as("iter span(s)"), finalCol.as("final acc"), totalJCol) +
		"\noverlapping hides communication behind the next iteration's compute\n"
	return rep, nil
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
	rep, err := lineup("Robustness: membership churn", o)
	if err != nil {
		return nil, err
	}
	rep.Faults = spec
	var b strings.Builder
	fmt.Fprintf(&b, "== Robustness: membership churn (CRUDA outdoors, faults %s) ==\n\n", spec)
	b.WriteString("-- accuracy vs wall-clock time --\n")
	b.WriteString(seriesByTime(rep.Systems, s.VirtualSeconds/8))
	b.WriteString("\n-- average time composition of a training iteration --\n")
	b.WriteString(compositionTable(rep.Systems))
	b.WriteString("\n-- membership churn --\n")
	b.WriteString(churnTable(rep.Systems))
	if sum := summary(rep.Systems, rep.Increasing); sum != "" {
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
	rep := newReport("Extension: packet loss × selective reliability", o)
	rates := []float64{0.02, 0.05}
	var all []*core.Result
	var cells []string
	for _, rate := range rates {
		o.Loss = lossnet.Spec{Kind: "ge", Rate: rate}
		for _, m := range modes {
			o.Systems, o.Reliability = []SystemSpec{m.sys}, m.rel
			rs, err := RunEndToEnd(o)
			if err != nil {
				return nil, err
			}
			all = append(all, rs[0])
			cells = append(cells, fmt.Sprintf("%s %s %s", m.sys.Label(), o.Loss, m.rel))
		}
	}
	rep.fill(all, cells...)
	for i, r := range all {
		rep.Systems[i].Loss = &r.Loss
	}
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.label
	}
	var b strings.Builder
	b.WriteString("== Extension: packet loss × selective reliability (CRUDA outdoors) ==\n\n")
	for k, rate := range rates {
		fmt.Fprintf(&b, "-- Gilbert–Elliott %.0f%% mean loss, %d-packet mean bursts --\n",
			100*rate, lossnet.DefaultBurst)
		b.WriteString(lossTable(named(rep.Systems[k*len(modes):(k+1)*len(modes)], names)))
		b.WriteString("\n")
	}
	b.WriteString("selective reliability retransmits only the Must prefix (MTA floor + RSP-forced rows);\n")
	b.WriteString("best-effort losses fold back into the local accumulator and ride the next push\n")
	rep.Text = b.String()
	return rep, nil
}

func runAblationSpeculative(s Scale) (*Report, error) {
	names := []string{"speculative (paper)", "per-row check 5ms", "per-row check 20ms"}
	checks := []float64{0, 0.005, 0.020}
	rep, variants, err := rog4Variants(ablationScale(s), "Ablation: speculative transmission vs per-row timeout checks (ROG-4)",
		names, func(i int, cfg *core.Config) { cfg.PerUnitCheckSeconds = checks[i] })
	if err != nil {
		return nil, err
	}
	rep.Text = "== " + rep.Title + " ==\n\n" +
		table(variants, variantCol, commCol, iterTotalCol, iterationsCol, finalCol.as("final acc")) +
		"\ninserting judgements between rows wastes airtime the speculative design reclaims\n"
	return rep, nil
}
