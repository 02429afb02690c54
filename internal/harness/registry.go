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
// a table, or an ablation. Run returns the formatted report.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) (string, error)
}

// Registry lists every experiment, in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "CRUDA outdoors: time composition, statistical efficiency, accuracy vs time, energy (Fig. 1)", runFig1},
		{"fig3", "Bandwidth instability of robotic IoT networks (Fig. 3)", runFig3},
		{"fig6", "CRUDA indoors: end-to-end comparison (Fig. 6)", runFig6},
		{"fig7", "CRIMP outdoors: trajectory error and energy (Fig. 7)", runFig7},
		{"fig8", "Micro-event analysis: bandwidth vs transmission rate vs staleness (Fig. 8)", runFig8},
		{"fig9batch", "Sensitivity to batch size x1/x2/x4 (Fig. 9 left)", runFig9Batch},
		{"fig9workers", "Sensitivity to worker count 4/6/8 (Fig. 9 right)", runFig9Workers},
		{"fig10", "Sensitivity to ROG staleness threshold 4/20/30/40 (Fig. 10)", runFig10},
		{"table1", "MTA values under different thresholds (Table I)", runTable1},
		{"table2", "Default experimental setup (Table II)", runTable2},
		{"table3", "Power in different states (Table III)", runTable3},
		{"ablation-granularity", "Granularity ablation: rows vs layers vs elements (Sec. III-A)", runAblationGranularity},
		{"ablation-importance", "Importance-metric ablation: magnitude vs staleness terms (Algo. 3)", runAblationImportance},
		{"ablation-speculative", "Speculative transmission vs per-row timeout checks (Sec. III-A)", runAblationSpeculative},
		{"churn", "Robustness: accuracy vs time under worker crash, rejoin, and blackout (membership churn)", runChurn},
		{"ext-loss", "Extension: bursty packet loss × selective reliability (lossnet channel)", runExtLoss},
		{"ext-recovery", "Extension: crash-consistent checkpointing — snapshot interval vs recovery cost (servercrash)", runExtRecovery},
		{"ext-pipeline", "Future-work extension: pipelined computation and communication (Sec. VI-D)", runExtPipeline},
		{"ext-dssp", "Extension: dynamic-staleness SSP (Zhao et al.) vs fixed SSP and ROG", runExtDSSP},
		{"fleet", "Fleet scaling: sharded parameter service × edge aggregation, up to 256 robots", runFleet},
		{"serve", "Inference tier: bounded-staleness serving over versioned snapshots — latency × staleness sweep", runServe},
		{"ext-convmlp", "Architecture-faithful CRUDA: ConvMLP stem + MLP head on synthetic images", runExtConvMLP},
		{"ext-gridmap", "Architecture-faithful CRIMP: NICE-SLAM-style feature-grid map", runExtGridMap},
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

// endToEndReport renders the four panels every end-to-end figure shares.
func endToEndReport(title string, results []*core.Result, increasing bool, s Scale) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n\n", title)
	b.WriteString("-- average time composition of a training iteration --\n")
	b.WriteString(CompositionTable(results))
	b.WriteString("\n-- statistical efficiency (quality vs iteration) --\n")
	b.WriteString(SeriesByIteration(results, max(1, iterStep(results))))
	b.WriteString("\n-- quality vs wall-clock time --\n")
	b.WriteString(SeriesByTime(results, s.VirtualSeconds/8))
	b.WriteString("\n-- energy consumption --\n")
	b.WriteString(EnergyTable(results, increasing))
	if sum := Summary(results, increasing); sum != "" {
		b.WriteString("\n" + sum + "\n")
	}
	return b.String()
}

func iterStep(results []*core.Result) int {
	end := 0
	for _, r := range results {
		if it := r.Series.Last().Iter; it > end {
			end = it
		}
	}
	return max(1, end/8)
}

func runFig1(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Fig. 1: CRUDA, outdoors", results, true, s), nil
}

func runFig6(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Indoor, Scale: s,
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Fig. 6: CRUDA, indoors", results, true, s), nil
}

func runFig7(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "crimp", Env: trace.Outdoor, Scale: s,
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Fig. 7: CRIMP, outdoors", results, false, s), nil
}

func runFig3(Scale) (string, error) {
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
	return b.String(), nil
}

func runFig8(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor,
		Scale:       Scale{Name: "micro", VirtualSeconds: s.MicroSeconds, CheckpointEvery: 50, PretrainIters: s.PretrainIters},
		Systems:     []SystemSpec{{core.ROG, 4}},
		RecordMicro: true,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Fig. 8: real-time bandwidth vs ROG transmission rate vs staleness (worker 1) ==\n\n")
	b.WriteString(MicroTable(results[0].Micro, 40))
	return b.String(), nil
}

func runFig9Batch(s Scale) (string, error) {
	var b strings.Builder
	b.WriteString("== Fig. 9 (left): batch-size sensitivity, CRUDA outdoors ==\n\n")
	for _, scale := range []int{1, 2, 4} {
		results, err := RunEndToEnd(EndToEndOptions{
			Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
			BatchScale: scale, Systems: SensitivitySystems(),
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "-- batch x%d --\n", scale)
		b.WriteString(CompositionTable(results))
		b.WriteString(EnergyTable(results, true))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runFig9Workers(s Scale) (string, error) {
	var b strings.Builder
	b.WriteString("== Fig. 9 (right): worker-count sensitivity, CRUDA outdoors ==\n\n")
	for _, n := range []int{4, 6, 8} {
		results, err := RunEndToEnd(EndToEndOptions{
			Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
			Workers: n, Systems: SensitivitySystems(),
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "-- %d workers --\n", n)
		b.WriteString(CompositionTable(results))
		b.WriteString(EnergyTable(results, true))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runFig10(s Scale) (string, error) {
	systems := []SystemSpec{{core.ROG, 4}, {core.ROG, 20}, {core.ROG, 30}, {core.ROG, 40}}
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s, Systems: systems,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Fig. 10: ROG threshold sensitivity ==\n\n")
	b.WriteString("-- accuracy vs wall-clock time --\n")
	b.WriteString(SeriesByTime(results, s.VirtualSeconds/8))
	b.WriteString("\n-- statistical efficiency --\n")
	b.WriteString(SeriesByIteration(results, iterStep(results)))
	return b.String(), nil
}

func runTable1(Scale) (string, error) {
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
	return b.String(), nil
}

func runTable2(Scale) (string, error) {
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
	return b.String(), nil
}

func runTable3(Scale) (string, error) {
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
	return b.String(), nil
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
	return o.config(SystemSpec{core.ROG, 4}), o.newWorkload()
}

func runAblationGranularity(s Scale) (string, error) {
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
		res, err := core.Run(cfg, wl)
		if err != nil {
			return "", err
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
	return b.String(), nil
}

func runAblationImportance(s Scale) (string, error) {
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
		res, err := core.Run(cfg, wl)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.2f", res.Composition.Stall),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%.4f", res.FinalValue),
		})
	}
	b.WriteString(metrics.FormatTable([]string{"variant", "stall(s)", "iterations", "final acc"}, rows))
	return b.String(), nil
}

func runExtPipeline(s Scale) (string, error) {
	var b strings.Builder
	b.WriteString("== Extension: pipelined compute/communication (ROG-4, CRUDA outdoors) ==\n\n")
	var rows [][]string
	for _, pipe := range []bool{false, true} {
		cfg, wl := rog4CRUDA(s)
		cfg.Pipeline = pipe
		res, err := core.Run(cfg, wl)
		if err != nil {
			return "", err
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
	return b.String(), nil
}

// runExtDSSP compares fixed-threshold SSP against DSSP — the dynamic-
// staleness baseline after Zhao et al., whose threshold adapts inside
// [2, Threshold] from the observed iteration spread — and ROG at the same
// cap. The lineup isolates what dynamic staleness alone buys over SSP,
// and what row granularity (ROG) adds on top of staleness control.
func runExtDSSP(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: []SystemSpec{{core.SSP, 4}, {core.SSP, 20}, {core.DSSP, 20}, {core.ROG, 20}},
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Extension: dynamic-staleness SSP (DSSP) vs fixed SSP and ROG, CRUDA outdoors",
		results, true, s), nil
}

// runChurn is the robustness experiment: the same crash/rejoin/blackout
// schedule is injected into BSP, SSP and ROG runs, and the report shows who
// keeps learning through it. Worker 1 crashes a quarter of the way in and
// rejoins at the half-way mark; worker 2's link then blacks out for an
// eighth of the run without any membership change.
// churnFaults is the churn experiment's fault script at scale s: robot 1
// is down for the second quarter, robot 2's link for an eighth from 5/8.
func churnFaults(s Scale) (string, simnet.FaultSchedule, error) {
	t := s.VirtualSeconds
	spec := fmt.Sprintf("crash:1@%.0f+%.0f,blackout:2@%.0f+%.0f", t/4, t/4, 5*t/8, t/8)
	faults, err := simnet.ParseFaultSchedule(spec)
	return spec, faults, err
}

func runChurn(s Scale) (string, error) {
	spec, faults, err := churnFaults(s)
	if err != nil {
		return "", err
	}
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: SensitivitySystems(),
		Faults:  faults,
	})
	if err != nil {
		return "", err
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
	return b.String(), nil
}

// runExtLoss is the loss-tolerance experiment: the same CRUDA workload under
// a bursty Gilbert–Elliott channel at two loss rates, comparing BSP (whole-
// model plans have no best-effort class, so every loss retransmits), ROG with
// selective reliability (only the Must prefix retransmits; best-effort losses
// fold their gradients back and ride the next push) and ROG forced
// all-reliable. Selective completes the same workload with strictly fewer
// retransmitted bytes — the acceptance claim of the lossnet subsystem.
func runExtLoss(s Scale) (string, error) {
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
	var b strings.Builder
	b.WriteString("== Extension: packet loss × selective reliability (CRUDA outdoors) ==\n\n")
	for _, rate := range []float64{0.02, 0.05} {
		fmt.Fprintf(&b, "-- Gilbert–Elliott %.0f%% mean loss, %d-packet mean bursts --\n",
			100*rate, lossnet.DefaultBurst)
		var labels []string
		var results []*core.Result
		for _, m := range modes {
			rs, err := RunEndToEnd(EndToEndOptions{
				Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
				Systems:     []SystemSpec{m.sys},
				Loss:        lossnet.Spec{Kind: "ge", Rate: rate},
				Reliability: m.rel,
			})
			if err != nil {
				return "", err
			}
			labels = append(labels, m.label)
			results = append(results, rs[0])
		}
		b.WriteString(LossTable(labels, results))
		b.WriteString("\n")
	}
	b.WriteString("selective reliability retransmits only the Must prefix (MTA floor + RSP-forced rows);\n")
	b.WriteString("best-effort losses fold back into the local accumulator and ride the next push\n")
	return b.String(), nil
}

func runExtConvMLP(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Scale: s,
		Systems: []SystemSpec{{core.BSP, 0}, {core.SSP, 4}, {core.ROG, 4}},
		ConvMLP: true,
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Extension: ConvMLP (conv stem + MLP head) on image CRUDA, outdoors",
		results, true, s), nil
}

func runExtGridMap(s Scale) (string, error) {
	results, err := RunEndToEnd(EndToEndOptions{
		Paradigm: "crimp", Env: trace.Outdoor, Scale: s,
		Systems: []SystemSpec{{core.BSP, 0}, {core.SSP, 4}, {core.ROG, 4}},
		GridMap: true,
	})
	if err != nil {
		return "", err
	}
	return endToEndReport("Extension: NICE-SLAM-style feature-grid map on CRIMP, outdoors",
		results, false, s), nil
}

func runAblationSpeculative(s Scale) (string, error) {
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
		res, err := core.Run(cfg, wl)
		if err != nil {
			return "", err
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
	return b.String(), nil
}
