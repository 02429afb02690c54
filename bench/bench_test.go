package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"rog/internal/core"
	"rog/internal/serve"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON holds the tables in main.go and
// BENCHMARK.json together: same workloads, same metrics, same units, same
// bounds.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, main.go %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, main.go %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != bounds[d.name] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, main.go %+v bound %v", i, m, d, bounds[d.name])
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, main.go %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, main.go %+v", i, m, d)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", b.RunSeconds, defaultSeconds)
	}
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEndToEnd runs every workload untraced at smoke size: exactly the
// declared end-to-end metrics come out, none of them 0, nothing fails.
func TestSmokeEndToEnd(t *testing.T) {
	want := declaredNames(endToEndMetrics)
	for i := range workloads {
		def := &workloads[i]
		res, err := runOne(def, 3, 0.2, &smokeSize, false, "")
		if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: err %v, result %+v", def.name, err, res)
		}
		if got := metricNames(res); !slices.Equal(got, want) {
			t.Errorf("%s: metrics %v, want %v", def.name, got, want)
		}
		for n, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", def.name, n, m.Value)
			}
		}
	}
}

// TestSmokePerLayer runs one workload the whole traced way (layer drivers,
// obs drivers, both passes) and checks that exactly the declared per-layer
// metrics come out; then it runs the two passes of every other workload.
// A traced pass that is not bit-identical to the untraced one fails here,
// through the fingerprint check in tracedPasses.
func TestSmokePerLayer(t *testing.T) {
	spans := t.TempDir() + "/spans.json"
	res, err := runOne(findWorkload("robust-sim"), 3, 0.2, &smokeSize, true, spans)
	if err != nil || !res.Correct {
		t.Fatalf("robust-sim traced: err %v, failed %d of %d", err, res.Failed, res.Attempted)
	}
	if got, want := metricNames(res), declaredNames(perLayerMetrics); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, want %v", got, want)
	}
	for _, n := range []string{"durable.fs_writes", "core.sync_self_s", "nn.compute_s", "tensor.mul128_ns", "obs.emit_ns", "trace.spans"} {
		if res.Metrics[n].Value <= 0 {
			t.Errorf("robust-sim: %s = %v, want > 0", n, res.Metrics[n].Value)
		}
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("spans file: %v, %d events", err, len(doc.TraceEvents))
	}

	declared := map[string]bool{}
	for _, d := range perLayerMetrics {
		declared[d.name] = true
	}
	for _, name := range []string{"fig1-cruda", "fleet-sync", "live-loopback", "serve-train"} {
		tl, out := &tally{}, map[string]float64{"nn.local_iters_per_s": 1000}
		if err := tracedPasses(out, findWorkload(name), 3, 0.2, &smokeSize, tl, ""); err != nil || tl.failed != 0 {
			t.Fatalf("%s traced: err %v, failures %v", name, err, tl.notes)
		}
		for n := range out {
			if !declared[n] {
				t.Errorf("%s emits undeclared metric %s", name, n)
			}
		}
		if name != "robust-sim" && out["durable.fs_writes"] != 0 {
			t.Errorf("%s: durable.fs_writes = %v outside robust-sim", name, out["durable.fs_writes"])
		}
	}
}

// TestChecksFire injects one violation per correctness check and expects a
// counted failure.
func TestChecksFire(t *testing.T) {
	good := func() []sysOutcome {
		return []sysOutcome{
			{label: "SSP-4", threshold: 4, res: &core.Result{Iterations: 10, FinalValue: 0.5, TotalJoules: 9, MaxStaleness: 4}},
			{label: "ROG-4", threshold: 4, res: &core.Result{Iterations: 10, FinalValue: 0.5, TotalJoules: 9, MaxStaleness: 3}},
		}
	}
	tl := &tally{}
	checkSim(tl, "x", good(), 0.2, false, false)
	if tl.failed != 0 {
		t.Fatalf("clean outcomes failed: %v", tl.notes)
	}
	for name, spoil := range map[string]func(o []sysOutcome) (robust, fleet bool){
		"staleness over bound":  func(o []sysOutcome) (bool, bool) { o[0].res.MaxStaleness = 5; return false, false },
		"accuracy at chance":    func(o []sysOutcome) (bool, bool) { o[1].res.FinalValue = 0.2; return false, false },
		"value not finite":      func(o []sysOutcome) (bool, bool) { o[0].res.TotalJoules = math.Inf(1); return false, false },
		"no fault was injected": func(o []sysOutcome) (bool, bool) { return true, false },
		"shards change result":  func(o []sysOutcome) (bool, bool) { o[1].res.Iterations = 11; return false, true },
	} {
		outs, tl := good(), &tally{}
		robust, fleet := spoil(outs)
		checkSim(tl, "x", outs, 0.2, robust, fleet)
		if tl.failed == 0 {
			t.Errorf("%s: no failure counted", name)
		}
	}

	for name, c := range map[string]struct {
		stale int64
		err   error
		acc   float64
	}{
		"staleness over bound": {liveThreshold + 1, nil, 0.5},
		"iteration error":      {2, errors.New("worker 1 iteration 7: broken pipe"), 0.5},
		"accuracy fell":        {2, nil, 0.1},
	} {
		tl := &tally{}
		checkLive(tl, c.stale, c.err, c.acc, 0.2)
		if tl.failed != 1 {
			t.Errorf("live %s: %d failures, want 1", name, tl.failed)
		}
	}

	ok := serve.Reply{ID: 7, Version: 5, Output: make([]float32, 100)}
	if msg := checkReply(ok, 7, 5, 5, 100); msg != "" {
		t.Fatalf("good reply rejected: %s", msg)
	}
	for name, msg := range map[string]string{
		"regressed version":  checkReply(ok, 7, 0, 6, 100),
		"read gate violated": checkReply(ok, 7, 6, 5, 100),
		"wrong id":           checkReply(ok, 8, 0, 0, 100),
		"wrong width":        checkReply(ok, 7, 0, 0, 10),
		"not finite":         checkReply(serve.Reply{ID: 7, Version: 5, Output: []float32{float32(math.Inf(1))}}, 7, 0, 0, 1),
	} {
		if msg == "" {
			t.Errorf("serve %s: reply accepted", name)
		}
	}
}

// hungInstance is a workload whose segment never returns until cancelled.
type hungInstance struct{ release chan struct{} }

func (h *hungInstance) warmup() error { return nil }
func (h *hungInstance) segment() (float64, []float64, error) {
	<-h.release
	return 0, nil, errors.New("cancelled")
}
func (h *hungInstance) cancel()                                  { close(h.release) }
func (h *hungInstance) close() error                             { return nil }
func (h *hungInstance) meters() []*meter                         { return nil }
func (h *hungInstance) verify(*tally)                            {}
func (h *hungInstance) fingerprint() []string                    { return nil }
func (h *hungInstance) layers(map[string]float64, *pass, *tally) {}

// TestWatchdogExpiryIsAFailure: a segment that hangs ends the run with a
// counted failure and a non-zero exit code, not with a hang.
func TestWatchdogExpiryIsAFailure(t *testing.T) {
	def := &workloadDef{name: "hung", expect: 10 * time.Millisecond,
		setup: func(uint64, *sizes, *recorder) (instance, error) {
			return &hungInstance{release: make(chan struct{})}, nil
		}}
	done := make(chan result, 1)
	go func() {
		res, _ := runOne(def, 1, 0.1, &smokeSize, false, "")
		done <- res
	}()
	select {
	case res := <-done:
		if res.Correct || res.Failed == 0 {
			t.Fatalf("hung segment reported as correct: %+v", res)
		}
		if code := emit(res, nil, ""); code == 0 {
			t.Fatal("failed result exits 0")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

// TestMeterScalesAndDoesNotAllocate: a piece's reference time is its
// measured time times the factor lap returned, and calibrating allocates
// nothing, so the meter cannot show in alloc_mb or mallocs.
func TestMeterScalesAndDoesNotAllocate(t *testing.T) {
	m := newMeter(0, nil)
	m.start()
	time.Sleep(2 * time.Millisecond)
	f := m.lap()
	if m.raw < 2e-3 || f <= 0 || math.Abs(m.ref-m.raw*f) > 1e-12 {
		t.Fatalf("raw %v ref %v factor %v", m.raw, m.ref, f)
	}
	if mt := sumMeters([]*meter{m}); mt.wallRef != m.ref || math.Abs(mt.slowdown*f-1) > 1e-9 || mt.kern <= 0 {
		t.Fatalf("sumMeters: %+v, factor %v", mt, f)
	}
	if a := testing.AllocsPerRun(20, func() { m.lap() }); a != 0 {
		t.Fatalf("lap allocates %v times", a)
	}
}
