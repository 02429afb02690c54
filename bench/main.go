// Command bench is the repo's two-clock benchmark: it times the Go code on
// the wall clock, end to end over five named workloads and layer by layer,
// while checking that what the program computed is correct. BENCHMARK.json
// at the repo root declares its command, workloads and metrics; README.md
// in this directory explains them.
//
//	bash bench/run.sh --workload fig1-cruda --seed 1 --seconds 17 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Without --workload it
// runs every workload both ways and prints one document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads are the five BENCHMARK.json names; why each exists is there and
// in README.md.
var workloads = []workloadDef{
	{name: "fig1-cruda", expect: 6 * time.Second, setup: setupFig1},
	{name: "fleet-sync", expect: 3 * time.Second, setup: setupFleet},
	{name: "robust-sim", expect: 5 * time.Second, setup: setupRobust},
	{name: "live-loopback", expect: 3 * time.Second, setup: setupLive},
	{name: "serve-train", expect: 3 * time.Second, setup: setupServe},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 17

// metricDef declares one metric's name and unit. BENCHMARK.json carries
// the same lists, and the tests hold the two together.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"cpu_s", "s"}, {"alloc_mb", "MB"}, {"mallocs", "count"},
}

// bounds is, per end-to-end metric, the share by which it may worsen
// before it counts as a regression (BENCHMARK.json's "bound"). The timing
// metrics are in reference seconds (calib.go); their bounds are still the
// widest the contract allows, because on the two socket workloads the
// reference box's noise gets past the scaling (README.md, "Spread").
var bounds = map[string]float64{
	"setup_s": 0.25, "wall_s": 0.25, "ops_per_s": 0.25, "op_p50_ms": 0.25, "cpu_s": 0.25, "alloc_mb": 0.08, "mallocs": 0.05,
}

var perLayerMetrics = []metricDef{
	{"trace_overhead_frac", "fraction"}, {"trace.spans", "count"}, {"trace.generate_ms", "ms"},
	{"tensor.mul128_ns", "ns"}, {"tensor.mul_transA128_ns", "ns"}, {"tensor.mul_transB128_ns", "ns"},
	{"tensor.mul_cruda_ns", "ns"}, {"tensor.mul128_gflops", "gflop/s"},
	{"nn.fwdbwd_ns", "ns"}, {"nn.fwdbwd_allocs", "count"}, {"nn.forward_b1_ns", "ns"}, {"nn.forward_b2000_ns", "ns"},
	{"nn.sgd_step_ns", "ns"}, {"nn.local_iters_per_s", "1/s"}, {"nn.compute_s", "s"}, {"nn.compute_share", "fraction"},
	{"harness.evaluate_s", "s"}, {"harness.evaluate_share", "fraction"}, {"harness.workload_build_s", "s"},
	{"harness.build_share", "fraction"}, {"harness.systems", "count"}, {"harness.rog_final_acc", "fraction"},
	{"core.run_s", "s"}, {"core.sync_self_s", "s"}, {"core.sync_share", "fraction"}, {"core.mallocs_per_iter", "count"},
	{"core.alloc_kb_per_iter", "KB"}, {"core.sync_overhead_x", "x"}, {"core.virt_iters", "count"},
	{"core.rows_sent", "count"}, {"core.rows_merged", "count"}, {"core.bytes_on_wire", "B"},
	{"core.gate_blocked", "count"}, {"core.max_staleness", "count"},
	{"simnet.events_per_s", "1/s"}, {"simnet.sim_s_per_wall_s", "x"},
	{"atp.rank_ns", "ns"}, {"atp.rank_allocs", "count"}, {"atp.rank_fleet_ns", "ns"}, {"atp.plan_ns", "ns"},
	{"rowsync.accumulate_ns", "ns"}, {"rowsync.meanabs_ns", "ns"},
	{"rowsync.version_update_w4_ns", "ns"}, {"rowsync.version_update_w256_ns", "ns"},
	{"compress.encode_row_ns", "ns"}, {"compress.decode_row_ns", "ns"}, {"compress.encode_allocs", "count"},
	{"compress.marshal_ns", "ns"}, {"compress.ratio", "fraction"},
	{"engine.merge_batch_s1_ns", "ns"}, {"engine.merge_batch_s8_ns", "ns"}, {"engine.merge_contended_s1_ns", "ns"},
	{"engine.merge_contended_s2_ns", "ns"}, {"engine.merge_allocs", "count"}, {"engine.plan_pull_ns", "ns"},
	{"transport.frame_roundtrip_ns", "ns"}, {"transport.send_frames_row_ns", "ns"}, {"transport.frame_allocs", "count"},
	{"transport.write_calls_per_iter", "count"}, {"transport.read_calls_per_iter", "count"},
	{"transport.wire_bytes_per_iter", "B"}, {"transport.write_busy_share", "fraction"}, {"transport.read_wait_share", "fraction"},
	{"livenet.iter_sync_p50_ms", "ms"}, {"livenet.iter_p99_ms", "ms"}, {"livenet.compute_share", "fraction"},
	{"livenet.other_share", "fraction"}, {"livenet.rows_merged", "count"}, {"livenet.rows_per_s", "1/s"},
	{"livenet.max_staleness", "count"}, {"livenet.segment_spread", "fraction"},
	{"lossnet.model_drop_ns", "ns"}, {"lossnet.burst_row_ns", "ns"}, {"lossnet.burst_allocs_per_row", "count"},
	{"lossnet.rows_folded", "count"}, {"lossnet.rows_retransmitted", "count"}, {"lossnet.retransmit_bytes", "B"},
	{"durable.wal_append_ns", "ns"}, {"durable.wal_append_sync64_ns", "ns"}, {"durable.checkpoint_ms", "ms"},
	{"durable.recover_ms", "ms"}, {"durable.journal_overhead_x", "x"}, {"durable.fs_write_bytes", "B"},
	{"durable.fs_writes", "count"}, {"durable.fs_syncs", "count"}, {"durable.fs_busy_s", "s"}, {"durable.replayed_records", "count"},
	{"serve.submit_ns", "ns"}, {"serve.batch16_req_ns", "ns"}, {"serve.frame_codec_ns", "ns"},
	{"serve.rowsink_overhead_x", "x"}, {"serve.materialize_ns", "ns"},
	{"serve.p99_ms", "ms"}, {"serve.gated_p50_ms", "ms"}, {"serve.merge_p50_us", "us"}, {"serve.merge_p99_us", "us"},
	{"serve.merges_per_s", "1/s"}, {"serve.gen_late_p99_ms", "ms"}, {"serve.batches_per_req", "fraction"},
	{"serve.publishes_per_s", "1/s"}, {"serve.read_stalls", "count"},
	{"obs.jsonl_overhead_frac", "fraction"}, {"obs.critpath_overhead_frac", "fraction"}, {"obs.emit_ns", "ns"},
}

// metric and result are the output contract: one result per (workload,
// trace) run, as the last line of standard output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload one way and packs the declared metrics; values
// the run did not produce are 0, values that are not finite are failures.
func runOne(def *workloadDef, seed uint64, seconds float64, sz *sizes, traced bool, spans string) (result, error) {
	t := &tally{}
	var values map[string]float64
	var err error
	defs := endToEndMetrics
	if traced {
		// The layer drivers first: the workload's own layer metrics build
		// on some of theirs.
		defs, values = perLayerMetrics, map[string]float64{}
		layerDrivers(values, seed, sz, t)
		obsOverhead(values, seed, sz, t)
		err = tracedPasses(values, def, seed, seconds, sz, t, spans)
	} else {
		p := runPass(def, seed, seconds, sz, nil, t)
		values = endToEnd(p)
		fmt.Fprintf(os.Stderr, "bench: %s: %d set-ups, %d timed operations, segment walls %.3f reference s, box slowdown %.2f\n", def.name, len(p.setups), len(p.lat), p.walls(), p.slowdowns())
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.check(false, "%s: metric %s is %v", def.name, d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", n)
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	return res, err
}

// repeatRuns runs the untraced set k times in this process and prints, per
// workload and metric, the widest relative difference between any two of
// the runs against the metric's bound. It returns the exit code: 1 if a
// run failed or a difference exceeds its bound.
func repeatRuns(defs []workloadDef, seed uint64, seconds float64, sz *sizes, k int) int {
	code := 0
	runs := make([][]result, len(defs))
	for r := 0; r < k; r++ {
		for i := range defs {
			res, err := runOne(&defs[i], seed, seconds, sz, false, "")
			if err != nil || !res.Correct {
				code = 1
			}
			runs[i] = append(runs[i], res)
		}
	}
	for i, def := range defs {
		for _, m := range endToEndMetrics {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, res := range runs[i] {
				lo, hi = math.Min(lo, res.Metrics[m.name].Value), math.Max(hi, res.Metrics[m.name].Value)
			}
			diff := ratio(hi-lo, lo)
			verdict := "ok"
			if diff > bounds[m.name] {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Printf("%-14s %-10s min %-12.6g max %-12.6g diff %6.2f%% bound %5.1f%% %s\n",
				def.name, m.name, lo, hi, 100*diff, 100*bounds[m.name], verdict)
		}
	}
	return code
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all five, untraced then traced")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures; whole segments, so it may overshoot")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both")
		smoke   = flag.Bool("smoke", false, "run at the tests' reduced size")
		repeat  = flag.Int("repeat", 0, "run the untraced set this many times and compare every pair against the bounds")
		outPath = flag.String("out", "", "also write the JSON document to this file")
		spans   = flag.String("spans", "", "write the traced pass's spans to this file (Chrome trace JSON); needs -workload")
	)
	flag.Parse()
	sz := &fullSize
	if *smoke {
		sz = &smokeSize
	}
	defs := workloads
	if *name != "" {
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		defs = []workloadDef{*def}
	}
	if *spans != "" && *name == "" {
		fmt.Fprintln(os.Stderr, "bench: -spans needs -workload")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(defs, *seed, *seconds, sz, *repeat))
	}

	// One workload, one way: the driver's contract.
	if *name != "" && *trace >= 0 {
		res, err := runOne(&defs[0], *seed, *seconds, sz, *trace == 1, *spans)
		os.Exit(emit(res, err, *outPath))
	}

	type entry struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		result
	}
	doc := struct {
		Env     map[string]any `json:"env"`
		Results []entry        `json:"results"`
	}{Env: map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"seed": *seed, "seconds": *seconds, "smoke": *smoke,
	}}
	code := 0
	for i := range defs {
		for tr := 0; tr <= 1; tr++ {
			if *trace >= 0 && tr != *trace {
				continue
			}
			res, err := runOne(&defs[i], *seed, *seconds, sz, tr == 1, *spans)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			if err != nil || !res.Correct {
				code = 1
			}
			printTable(defs[i].name, tr, res)
			doc.Results = append(doc.Results, entry{defs[i].name, tr, res})
		}
	}
	if c := emit(doc, nil, *outPath); c != 0 {
		code = c
	}
	os.Exit(code)
}

// emit prints v as one JSON line on standard output (and to path, if set)
// and returns the exit code: 1 when err is set or v is a failed result.
func emit(v any, err error, path string) int {
	code := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	if r, ok := v.(result); ok && !r.Correct {
		code = 1
	}
	line, merr := json.Marshal(v)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "bench:", merr)
		return 1
	}
	if path != "" {
		if werr := os.WriteFile(path, append(line, '\n'), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "bench:", werr)
			code = 1
		}
	}
	fmt.Println(string(line))
	return code
}

func printTable(name string, tr int, r result) {
	fmt.Fprintf(os.Stderr, "== %s trace=%d correct=%v attempted=%d failed=%d\n", name, tr, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
