package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// collectTracer retains every event for assertions.
type collectTracer struct {
	events []Event
}

func (c *collectTracer) Emit(e Event) { c.events = append(c.events, e) }

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindIterStart; k <= KindReadStallEnd; k++ {
		name := k.String()
		if name == "Unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := KindFromString(name); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", name, got, k)
		}
	}
	if KindFromString("nope") != 0 {
		t.Error("unknown name should map to 0")
	}
}

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.IterStart(0, 1)
	p.IterEnd(0, 1, 1, 2, 3)
	p.PushPlanned(0, 1, 3, 1, 2, 100, true, "")
	p.RowsSent(0, 1, DirPush, 3, 100, 0.5, true)
	p.StallBegin(0, 1, "gate", NoBlocker())
	p.StallEnd(0, 1, "gate", 0.25, NoBlocker())
	p.Merge(0, 2, 1, 1, 1, 0)
	p.GateCheck(false)
	p.BudgetUsed(1, 0.5)
	p.Detach(0, 1, "crash")
	p.Reconnect(0, 1)
	p.Resync(0, 3, 100)
	p.ObservePlan(3, 100)
	if NewProbe(nil, nil, nil) != nil {
		t.Error("NewProbe with nothing enabled must return nil")
	}
}

// TestNilProbeAllocationFree is the acceptance guard: with tracing
// disabled the instrumented hot paths must not allocate.
func TestNilProbeAllocationFree(t *testing.T) {
	var p *Probe
	allocs := testing.AllocsPerRun(1000, func() {
		p.IterStart(1, 7)
		p.Merge(1, 3, 7, 7, 7, 2)
		p.RowsSent(1, 7, DirPush, 5, 1e4, 0.3, true)
		p.GateCheck(true)
		p.StallBegin(1, 7, "gate", Blocker{Worker: 2, Unit: 3, Version: 5})
		p.StallEnd(1, 7, "gate", 0.1, Blocker{Worker: 2, Unit: 3, Version: 6})
	})
	if allocs != 0 {
		t.Fatalf("disabled probe allocated %.1f times per run, want 0", allocs)
	}
}

func TestProbeStampsClock(t *testing.T) {
	now := 0.0
	ct := &collectTracer{}
	p := NewProbe(ct, nil, func() float64 { return now })
	now = 1.5
	p.IterStart(2, 9)
	now = 3.25
	p.IterEnd(2, 9, 1, 0.5, 0.25)
	if len(ct.events) != 2 {
		t.Fatalf("got %d events, want 2", len(ct.events))
	}
	if ct.events[0].Time != 1.5 || ct.events[1].Time != 3.25 {
		t.Errorf("timestamps %v, %v; want 1.5, 3.25", ct.events[0].Time, ct.events[1].Time)
	}
	if ct.events[0].Worker != 2 || ct.events[0].Iter != 9 {
		t.Errorf("event fields %+v", ct.events[0])
	}
}

func sampleEvents() []Event {
	return []Event{
		{Kind: KindIterStart, Time: 0, Worker: 0, Iter: 1},
		{Kind: KindPushPlanned, Time: 2.64, Worker: 0, Iter: 1, Units: 5, Must: 2, Deferred: 1, Bytes: 5000, Spec: true},
		{Kind: KindRowsSent, Time: 3.1, Worker: 0, Iter: 1, Units: 4, Bytes: 4000, Seconds: 0.46, Dir: DirPush, Spec: true},
		{Kind: KindMerge, Time: 3.1, Worker: 0, Iter: 1, Unit: 0, Version: 1, Lag: 0},
		{Kind: KindMerge, Time: 3.1, Worker: 0, Iter: 1, Unit: 3, Version: 1, Lag: 2},
		{Kind: KindStallBegin, Time: 3.2, Worker: 0, Iter: 1, Cause: "gate", BlockWorker: 1, BlockUnit: 3, BlockVersion: 1},
		{Kind: KindStallEnd, Time: 4.0, Worker: 0, Iter: 1, Cause: "gate", Seconds: 0.8, BlockWorker: 1, BlockUnit: 3, BlockVersion: 2},
		{Kind: KindRowsSent, Time: 4.4, Worker: 0, Iter: 1, Units: 6, Bytes: 6000, Seconds: 0.4, Dir: DirPull, Spec: true},
		{Kind: KindIterEnd, Time: 4.4, Worker: 0, Iter: 1, Compute: 2.64, Comm: 0.86, Stall: 0.9},
		{Kind: KindDetach, Time: 5.0, Worker: 1, Iter: 2, Cause: "crash"},
		{Kind: KindReconnect, Time: 7.0, Worker: 1, Iter: 3, Version: 3},
		{Kind: KindResync, Time: 7.1, Worker: 1, Units: 8, Bytes: 8000},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	want := sampleEvents()
	for _, e := range want {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line must be standalone valid JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i+1, line)
		}
	}
	var got []Event
	if err := ReadEvents(bytes.NewReader(buf.Bytes()), func(e Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if err := ReadEvents(strings.NewReader("{not json\n"), func(Event) error { return nil }); err == nil {
		t.Error("malformed line should error")
	}
	if err := ReadEvents(strings.NewReader(`{"ev":"Martian","t":0,"w":0,"iter":0}`+"\n"),
		func(Event) error { return nil }); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestChromeExporterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf)
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(sampleEvents()) {
		t.Fatalf("got %d trace events, want %d", len(doc.TraceEvents), len(sampleEvents()))
	}
	var xCount, iCount int
	for _, te := range doc.TraceEvents {
		switch te.Ph {
		case "X":
			xCount++
			if te.Dur < 0 || te.Ts < 0 {
				t.Errorf("complete event %q has negative ts/dur: %+v", te.Name, te)
			}
		case "i":
			iCount++
		default:
			t.Errorf("unexpected phase %q", te.Ph)
		}
		if te.Pid != 1 {
			t.Errorf("pid = %d, want 1", te.Pid)
		}
	}
	// IterEnd, StallEnd and the two RowsSent become X; the rest instants.
	if xCount != 4 || iCount != len(sampleEvents())-4 {
		t.Errorf("phases: %d X + %d i", xCount, iCount)
	}
	// Empty trace must still be valid.
	var empty bytes.Buffer
	et := NewChromeTracer(&empty)
	if err := et.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(empty.Bytes()) {
		t.Fatalf("empty chrome trace invalid: %s", empty.String())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows").Add(3)
	r.Counter("rows").Add(4)
	r.FloatCounter("sec").Add(1.5)
	r.FloatCounter("sec").Add(2.5)
	r.Gauge("budget").Set(0.5)
	r.Gauge("budget").Set(0.75)
	h := r.Histogram("lag", []float64{0, 1, 2})
	for _, v := range []float64{0, 0, 1, 2, 5} {
		h.Observe(v)
	}

	s := r.Snapshot()
	if s.Counters["rows"] != 7 {
		t.Errorf("counter = %d, want 7", s.Counters["rows"])
	}
	if s.Floats["sec"] != 4 {
		t.Errorf("float counter = %g, want 4", s.Floats["sec"])
	}
	if s.Gauges["budget"] != 0.75 {
		t.Errorf("gauge = %g, want 0.75", s.Gauges["budget"])
	}
	hs := s.Histograms["lag"]
	wantCounts := []int64{2, 1, 1, 1} // <=0, <=1, <=2, overflow
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
	if hs.Count != 5 || hs.Sum != 8 {
		t.Errorf("hist count=%d sum=%g, want 5, 8", hs.Count, hs.Sum)
	}
	if got := hs.Mean(); got != 1.6 {
		t.Errorf("hist mean = %g, want 1.6", got)
	}

	// Nil registry snapshots to empty, not panic.
	var nr *Registry
	if got := nr.Snapshot(); len(got.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", got)
	}
}

func TestProbeFeedsRegistry(t *testing.T) {
	r := NewRegistry()
	p := NewProbe(nil, r, nil)
	p.IterEnd(0, 1, 2, 1, 0.5)
	p.PushPlanned(0, 1, 5, 2, 3, 5000, true, "")
	p.RowsSent(0, 1, DirPush, 4, 4000, 0.4, true)
	p.RowsSent(0, 1, DirPull, 6, 6000, 0.6, true)
	p.StallEnd(0, 1, "gate", 0.8, Blocker{Worker: 1, Unit: 2, Version: 1})
	p.Merge(0, 2, 1, 1, 1, 3)
	p.GateCheck(false)
	p.GateCheck(true)
	p.BudgetUsed(1.0, 0.4)
	p.Detach(1, 2, "crash")
	p.Reconnect(1, 3)
	p.Resync(1, 8, 8000)
	p.ObservePlan(5, 5000)

	s := r.Snapshot()
	checks := map[string]int64{
		"iters_completed": 1, "rows_planned": 5, "rows_deferred": 3,
		"rows_sent": 4, "rows_pulled": 6, "rows_merged": 1,
		"gate_checks": 2, "gate_blocked": 1,
		"detaches": 1, "reconnects": 1, "rows_resynced": 8,
		"plans_built": 1, "plan_rows": 5,
	}
	for name, want := range checks {
		if got := s.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := s.Floats["stall_seconds/gate"]; got != 0.8 {
		t.Errorf("stall_seconds/gate = %g, want 0.8", got)
	}
	if got := s.Floats["bytes_on_wire"]; got != 10000 {
		t.Errorf("bytes_on_wire = %g, want 10000", got)
	}
	if got := s.Floats["mta_budget_seconds"]; got != 1.0 {
		t.Errorf("mta_budget_seconds = %g, want 1", got)
	}
	if got := s.Gauges["resync_backlog"]; got != 8 {
		t.Errorf("resync_backlog = %g, want 8", got)
	}
	if got := s.Histograms["staleness"].Count; got != 1 {
		t.Errorf("staleness observations = %d, want 1", got)
	}
	if got := s.Histograms["staleness/unit2"].Count; got != 1 {
		t.Errorf("per-unit staleness observations = %d, want 1", got)
	}
	if got := s.Histograms["stall_duration_seconds"].Count; got != 1 {
		t.Errorf("stall duration observations = %d, want 1", got)
	}
}

func TestAggregate(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	// A second worker-iteration of the same iteration number, to exercise
	// per-iteration averaging.
	tr.Emit(Event{Kind: KindIterStart, Time: 1.0, Worker: 1, Iter: 1})
	tr.Emit(Event{Kind: KindIterEnd, Time: 5.0, Worker: 1, Iter: 1, Compute: 2.64, Comm: 1.0, Stall: 0.1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	an, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := an.Summary()
	if len(s.PairErrors) != 0 {
		t.Fatalf("unexpected pair errors: %v", s.PairErrors)
	}
	if s.Iters != 2 {
		t.Fatalf("iters = %d, want 2", s.Iters)
	}
	comp, comm, stall := s.Composition()
	closeTo := func(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
	if !closeTo(comp, 2.64) || !closeTo(comm, 0.93) || !closeTo(stall, 0.5) {
		t.Errorf("composition = %g/%g/%g, want 2.64/0.93/0.5", comp, comm, stall)
	}
	if len(s.ByIter) != 1 || s.ByIter[0].Count != 2 {
		t.Errorf("ByIter = %+v", s.ByIter)
	}
	if s.RowsPlanned != 5 || s.RowsDeferred != 1 || s.RowsSent != 4 || s.RowsPulled != 6 {
		t.Errorf("rows: planned %d deferred %d sent %d pulled %d",
			s.RowsPlanned, s.RowsDeferred, s.RowsSent, s.RowsPulled)
	}
	if s.StallByCause["gate"] != 0.8 {
		t.Errorf("gate stall = %g, want 0.8", s.StallByCause["gate"])
	}
	if s.Merges != 2 || s.LagHist[0] != 1 || s.LagHist[2] != 1 {
		t.Errorf("merges %d hist %v", s.Merges, s.LagHist)
	}
	if len(s.Units) != 2 || s.Units[1].Unit != 3 || s.Units[1].MaxLag != 2 {
		t.Errorf("units %+v", s.Units)
	}
	if s.Detaches != 1 || s.Reconnects != 1 || s.ResyncRows != 8 {
		t.Errorf("churn: detach %d reconnect %d resync rows %d", s.Detaches, s.Reconnects, s.ResyncRows)
	}
	if s.OpenStalls != 0 {
		t.Errorf("open stalls = %d, want 0", s.OpenStalls)
	}
}

func TestAggregatePairingViolations(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Emit(Event{Kind: KindStallEnd, Time: 1, Worker: 0, Iter: 1, Cause: "gate", Seconds: 1})
	tr.Emit(Event{Kind: KindReconnect, Time: 2, Worker: 1, Iter: 1})
	tr.Emit(Event{Kind: KindDetach, Time: 3, Worker: 2, Iter: 1, Cause: "crash"})
	tr.Emit(Event{Kind: KindDetach, Time: 4, Worker: 2, Iter: 1, Cause: "crash"})
	tr.Emit(Event{Kind: KindStallBegin, Time: 5, Worker: 3, Iter: 1, Cause: "gate"})
	tr.Emit(Event{Kind: KindPushPlanned, Time: 6, Worker: 3, Iter: 2, Units: 1})
	tr.Emit(Event{Kind: KindPushPlanned, Time: 7, Worker: 2, Iter: 2, Cause: "skip"}) // another worker's plan
	tr.Emit(Event{Kind: KindPushPlanned, Time: 8, Worker: 3, Iter: 2, Units: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	an, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := an.Summary()
	if len(s.PairErrors) != 4 {
		t.Fatalf("pair errors = %v, want 4", s.PairErrors)
	}
	if want := "worker 3: second PushPlanned for iteration 2 at t=8.000"; s.PairErrors[3] != want {
		t.Errorf("pair error %q, want %q", s.PairErrors[3], want)
	}
	if s.OpenStalls != 1 {
		t.Errorf("open stalls = %d, want 1", s.OpenStalls)
	}
}

func TestTee(t *testing.T) {
	a, b := &collectTracer{}, &collectTracer{}
	if Tee(nil, nil) != nil {
		t.Error("Tee of nothing should be nil")
	}
	if got := Tee(nil, a); got != Tracer(a) {
		t.Error("Tee of one tracer should unwrap it")
	}
	tee := Tee(a, b)
	tee.Emit(Event{Kind: KindIterStart, Worker: 2, Iter: 5})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("fan-out reached %d/%d tracers, want 1/1", len(a.events), len(b.events))
	}
	if a.events[0] != b.events[0] {
		t.Error("tracers saw different events")
	}
}

func BenchmarkDisabledProbeMergePath(b *testing.B) {
	var p *Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Merge(1, 3, int64(i), int64(i), int64(i), 0)
		p.GateCheck(true)
	}
}

func BenchmarkJSONLEmit(b *testing.B) {
	tr := NewJSONLTracer(discard{})
	p := NewProbe(tr, nil, func() float64 { return 1.5 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RowsSent(1, int64(i), DirPush, 5, 1e4, 0.3, true)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
