package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"rog/internal/obs"
)

// closeEnough tolerates float rounding between the streamed aggregate and
// the recorder's running sums (both add the same terms, possibly in a
// different order).
func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestTraceAggregationMatchesResult is the acceptance criterion of the
// tracing tentpole: a traced simnet run must yield a JSONL stream whose
// aggregation reproduces the run's metrics.Result — same iteration
// composition, consistent row/byte totals — with no pairing violations.
func TestTraceAggregationMatchesResult(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(ROG, 4)
	tr := obs.NewJSONLTracer(&buf)
	cfg.Trace = tr
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg, newTestWorkload(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	an, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := an.Summary()
	if len(sum.PairErrors) != 0 {
		t.Fatalf("pairing violations: %v", sum.PairErrors)
	}
	comp, comm, stall := sum.Composition()
	if !closeEnough(comp, res.Composition.Compute) ||
		!closeEnough(comm, res.Composition.Comm) ||
		!closeEnough(stall, res.Composition.Stall) {
		t.Fatalf("trace composition = %g/%g/%g, result = %g/%g/%g",
			comp, comm, stall,
			res.Composition.Compute, res.Composition.Comm, res.Composition.Stall)
	}
	if sum.Iters == 0 {
		t.Fatal("no IterEnd events in trace")
	}
	if sum.Events["IterStart"] < sum.Events["IterEnd"] {
		t.Fatalf("IterStart (%d) < IterEnd (%d): every finished iteration must have started",
			sum.Events["IterStart"], sum.Events["IterEnd"])
	}
	if sum.RowsSent == 0 || sum.BytesPushed == 0 {
		t.Fatalf("no push traffic traced (rows=%d bytes=%g)", sum.RowsSent, sum.BytesPushed)
	}
	if sum.RowsPlanned < sum.RowsSent {
		t.Fatalf("planned %d rows but sent %d", sum.RowsPlanned, sum.RowsSent)
	}
	if sum.Merges == 0 {
		t.Fatal("no Merge events traced")
	}

	// The registry must agree with the trace on shared counters.
	snap := cfg.Metrics.Snapshot()
	if snap.Counters["iters_completed"] != int64(sum.Iters) {
		t.Fatalf("registry iters_completed = %d, trace = %d",
			snap.Counters["iters_completed"], sum.Iters)
	}
	if snap.Counters["rows_sent"] != sum.RowsSent {
		t.Fatalf("registry rows_sent = %d, trace = %d", snap.Counters["rows_sent"], sum.RowsSent)
	}
	if snap.Counters["rows_merged"] != sum.Merges {
		t.Fatalf("registry rows_merged = %d, trace merges = %d",
			snap.Counters["rows_merged"], sum.Merges)
	}
	if snap.Histograms["staleness"].Count != sum.Merges {
		t.Fatalf("staleness histogram count = %d, merges = %d",
			snap.Histograms["staleness"].Count, sum.Merges)
	}
}

// TestTraceChromeExport runs a traced experiment through the Chrome
// exporter and checks the result is valid trace_event JSON.
func TestTraceChromeExport(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(ROG, 4)
	tr := obs.NewChromeTracer(&buf)
	cfg.Trace = tr
	if _, err := Run(cfg, newTestWorkload(3, 11)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON (%d bytes)", buf.Len())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q for %q", e.Ph, e.Name)
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("chrome trace has %d spans, %d instants; want both > 0", spans, instants)
	}
}

// TestTraceChurnEventsMatchCounters crashes and rejoins a worker under
// tracing: Detach/Reconnect/Resync events must agree with Result.Churn
// and the stall/churn pairing rules must hold.
func TestTraceChurnEventsMatchCounters(t *testing.T) {
	var buf bytes.Buffer
	cfg := churnConfig(ROG, 4, "crash:1@30+60")
	tr := obs.NewJSONLTracer(&buf)
	cfg.Trace = tr
	res, err := Run(cfg, newTestWorkload(3, 21))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	an, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := an.Summary()
	if len(sum.PairErrors) != 0 {
		t.Fatalf("pairing violations: %v", sum.PairErrors)
	}
	if int(sum.Detaches) != res.Churn.Disconnects {
		t.Fatalf("trace detaches = %d, churn disconnects = %d", sum.Detaches, res.Churn.Disconnects)
	}
	if int(sum.Reconnects) != res.Churn.Reconnects {
		t.Fatalf("trace reconnects = %d, churn reconnects = %d", sum.Reconnects, res.Churn.Reconnects)
	}
	if int(sum.ResyncRows) != res.Churn.RowsResynced {
		t.Fatalf("trace resync rows = %d, churn rows = %d", sum.ResyncRows, res.Churn.RowsResynced)
	}
	if sum.Detaches == 0 || sum.Reconnects == 0 {
		t.Fatal("churn run traced no detach/reconnect events")
	}
}

// TestTraceDisabledRunsUnchanged re-runs the same seeded experiment with
// and without tracing: the probe must be purely observational.
func TestTraceDisabledRunsUnchanged(t *testing.T) {
	plain, err := Run(testConfig(ROG, 4), newTestWorkload(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := testConfig(ROG, 4)
	cfg.Trace = obs.NewJSONLTracer(&buf)
	cfg.Metrics = obs.NewRegistry()
	traced, err := Run(cfg, newTestWorkload(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != traced.Iterations ||
		plain.Composition != traced.Composition ||
		plain.TotalJoules != traced.TotalJoules ||
		plain.FinalValue != traced.FinalValue {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", plain, traced)
	}
}

// runMergesNamePlans runs cfg and fails t unless every Merge event's
// (Worker, Iter) — the name a push carries in place of a sequence number — is
// a PushPlanned that worker emitted earlier. It returns the result and the
// number of Merge events that followed a server restart. obs.Aggregate checks
// the other half wherever a trace is aggregated: no worker plans one
// iteration twice.
func runMergesNamePlans(t *testing.T, cfg Config, seed uint64) (*Result, int) {
	t.Helper()
	type push struct {
		w int
		n int64
	}
	planned := map[push]bool{}
	restarted, merges, after, unnamed := false, 0, 0, 0
	cfg.Trace = tracerFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindPushPlanned:
			planned[push{e.Worker, e.Iter}] = true
		case obs.KindReconnect:
			restarted = restarted || e.Worker == -1
		case obs.KindMerge:
			merges++
			if restarted {
				after++
			}
			if !planned[push{e.Worker, e.Iter}] {
				unnamed++
			}
		}
	})
	res, err := Run(cfg, newTestWorkload(cfg.Workers, seed))
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 || unnamed != 0 {
		t.Fatalf("%d of %d Merge events name no earlier PushPlanned of their worker", unnamed, merges)
	}
	return res, after
}

// TestMergeSeqMatchesPlan: every Merge event names the push its worker
// planned, directly and through the edge tier. A row parked in an edge
// aggregator merges after its robot has planned again, so the name has to
// ride the row's stamp.
func TestMergeSeqMatchesPlan(t *testing.T) {
	for _, aggs := range []int{0, 2} {
		cfg := testConfig(ROG, 4)
		cfg.Workers, cfg.Aggregators = 8, aggs
		runMergesNamePlans(t, cfg, 11)
	}
}

// TestMergeSeqSurvivesServerCrash: a push in flight across a server restart
// still names its plan on the rows it lands in the recovered state. Every
// append is synced here, so the restart re-stamps nothing and every Merge has
// a plan to match.
func TestMergeSeqSurvivesServerCrash(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.Workers = 3
	cfg.Durable, cfg.SnapshotEverySeconds = memStore(t), 20
	cfg.Faults = mustFaults(t, "servercrash@25+5")
	res, after := runMergesNamePlans(t, cfg, 33)
	if res.Recovery.Recoveries != 1 || res.Recovery.RowsLost != 0 || after == 0 {
		t.Fatalf("recovery %+v with %d merges after it: the scenario did not happen", res.Recovery, after)
	}
}
