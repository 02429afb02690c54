package obs

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
)

// critTrace is a two-iteration single-worker trace shaped like the async
// driver's emission order, with one attributed gate stall.
func critTrace() []Event {
	return []Event{
		{Kind: KindIterStart, Time: 0, Worker: 0, Iter: 1},
		{Kind: KindPushPlanned, Time: 2, Worker: 0, Iter: 1, Units: 4, Bytes: 4000},
		{Kind: KindRowsSent, Time: 2.5, Worker: 0, Iter: 1, Units: 4, Bytes: 4000, Seconds: 0.5, Dir: DirPush},
		{Kind: KindStallBegin, Time: 2.5, Worker: 0, Iter: 1, Cause: "gate", BlockWorker: 1, BlockUnit: 3, BlockVersion: 0},
		{Kind: KindMerge, Time: 3.5, Worker: 1, Iter: 1, Unit: 3, Version: 1},
		{Kind: KindStallEnd, Time: 3.5, Worker: 0, Iter: 1, Cause: "gate", Seconds: 1, BlockWorker: 1, BlockUnit: 3, BlockVersion: 1},
		{Kind: KindRowsSent, Time: 4, Worker: 0, Iter: 1, Units: 4, Bytes: 4000, Seconds: 0.5, Dir: DirPull},
		{Kind: KindIterEnd, Time: 4, Worker: 0, Iter: 1, Compute: 2, Comm: 1, Stall: 1},

		{Kind: KindIterStart, Time: 4, Worker: 0, Iter: 2},
		{Kind: KindPushPlanned, Time: 6, Worker: 0, Iter: 2, Units: 4, Bytes: 4000},
		{Kind: KindRowsSent, Time: 6.5, Worker: 0, Iter: 2, Units: 4, Bytes: 4000, Seconds: 0.5, Dir: DirPush},
		{Kind: KindRowsSent, Time: 7, Worker: 0, Iter: 2, Units: 4, Bytes: 4000, Seconds: 0.5, Dir: DirPull},
		{Kind: KindIterEnd, Time: 7.5, Worker: 0, Iter: 2, Compute: 2, Comm: 1, Stall: 0},
	}
}

func TestCritPathDecomposition(t *testing.T) {
	cp := NewCritPath()
	for _, e := range critTrace() {
		cp.Emit(e)
	}
	rep := cp.Report()
	if len(rep.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors)
	}
	// Worker 1 emitted only a Merge — no iterations, so only worker 0 has
	// a path row with wall time.
	var w0 *WorkerPath
	for i := range rep.Workers {
		if rep.Workers[i].Worker == 0 {
			w0 = &rep.Workers[i]
		}
	}
	if w0 == nil {
		t.Fatal("no worker-0 path")
	}
	closeTo := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if w0.Iters != 2 || !closeTo(w0.WallSeconds, 7.5) {
		t.Errorf("worker 0: iters %d wall %g, want 2 / 7.5", w0.Iters, w0.WallSeconds)
	}
	// iter 1: span 4 = compute 2 + comm 1 + stall 1 + merge 0.
	// iter 2: span 3.5 = compute 2 + comm 1 + stall 0 + merge 0.5 (the
	// residual server window between pull completion and IterEnd).
	if !closeTo(w0.ComputeSeconds, 4) || !closeTo(w0.CommSeconds, 2) ||
		!closeTo(w0.StallSeconds, 1) || !closeTo(w0.MergeSeconds, 0.5) {
		t.Errorf("segments = %g/%g/%g/%g, want 4/2/1/0.5",
			w0.ComputeSeconds, w0.CommSeconds, w0.StallSeconds, w0.MergeSeconds)
	}
	if !closeTo(w0.Coverage, 1) {
		t.Errorf("coverage = %g, want 1 (the decomposition is exact by construction)", w0.Coverage)
	}
	if !closeTo(rep.MinCoverage(), 1) {
		t.Errorf("min coverage = %g, want 1", rep.MinCoverage())
	}
	if len(rep.Blockers) != 1 {
		t.Fatalf("blockers = %+v, want exactly the (1, 3) releaser", rep.Blockers)
	}
	b := rep.Blockers[0]
	if b.Worker != 1 || b.Unit != 3 || !closeTo(b.StallSeconds, 1) || b.Stalls != 1 {
		t.Errorf("top blocker = %+v, want worker 1 unit 3 with 1s over 1 stall", b)
	}
	if rep.Unattributed != 0 || rep.OpenStalls != 0 {
		t.Errorf("unattributed %d open %d, want 0/0", rep.Unattributed, rep.OpenStalls)
	}
	if rep.StallHist.Count != 1 || !closeTo(rep.StallHist.Sum, 1) {
		t.Errorf("stall hist = %+v", rep.StallHist)
	}
}

func TestCritPathFromReaderMatchesStreaming(t *testing.T) {
	var buf bytes.Buffer
	tr, live := NewJSONLTracer(&buf), NewCritPath()
	for _, e := range critTrace() {
		tr.Emit(e)
		live.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Report()
	compute, comm, stall, merge := rep.Totals()
	if compute != 4 || comm != 2 || stall != 1 || merge != 0.5 {
		t.Errorf("totals = %g/%g/%g/%g, want 4/2/1/0.5", compute, comm, stall, merge)
	}
	if !reflect.DeepEqual(rep, live.Report()) || !reflect.DeepEqual(cp.Summary(), live.Summary()) {
		t.Error("the analyser read from JSONL disagrees with the live one")
	}
}

func TestCritPathInfraAndErrors(t *testing.T) {
	cp := NewCritPath()
	// Aggregator uplink flow: negative worker, charged to infra.
	cp.Emit(Event{Kind: KindRowsSent, Time: 1, Worker: -1, Iter: 3, Units: 8, Seconds: 0.7, Dir: DirPush})
	// A closed stall with no concrete blocker.
	cp.Emit(Event{Kind: KindStallBegin, Time: 1, Worker: 1, Iter: 1, Cause: "gate", BlockWorker: -1, BlockUnit: -1})
	cp.Emit(Event{Kind: KindStallEnd, Time: 1.5, Worker: 1, Iter: 1, Cause: "gate", Seconds: 0.5,
		BlockWorker: -1, BlockUnit: -1})
	// Structural violations, reported and otherwise ignored: an IterEnd
	// with no IterStart and an unpaired StallEnd.
	cp.Emit(Event{Kind: KindIterEnd, Time: 2, Worker: 0, Iter: 9, Compute: 1})
	cp.Emit(Event{Kind: KindStallEnd, Time: 3, Worker: 0, Iter: 9, Cause: "gate", Seconds: 0.2,
		BlockWorker: -1, BlockUnit: -1})
	cp.Emit(Event{Kind: KindStallBegin, Time: 4, Worker: 2, Iter: 1, Cause: "gate", BlockWorker: -1, BlockUnit: -1})
	rep, sum := cp.Report(), cp.Summary()
	if rep.InfraCommSeconds != 0.7 {
		t.Errorf("infra comm = %g, want 0.7", rep.InfraCommSeconds)
	}
	if len(rep.Errors) != 2 || !reflect.DeepEqual(rep.Errors, sum.PairErrors) {
		t.Errorf("errors = %v, pair errors = %v, want the same 2", rep.Errors, sum.PairErrors)
	}
	if rep.OpenStalls != 1 || sum.OpenStalls != 1 {
		t.Errorf("open stalls = %d/%d, want 1", rep.OpenStalls, sum.OpenStalls)
	}
	if rep.Unattributed != 1 || rep.StallHist.Count != 1 || sum.StallByCause["gate"] != 0.5 {
		t.Errorf("unattributed %d, stall hist count %d, gate stall %gs: want only the paired stall, 1/1/0.5",
			rep.Unattributed, rep.StallHist.Count, sum.StallByCause["gate"])
	}
	if sum.Iters != 0 || len(rep.Workers) != 0 {
		t.Errorf("iters %d, workers %+v: an IterEnd without IterStart must feed no total", sum.Iters, rep.Workers)
	}
}

// TestPairingRules feeds one malformed stream per pairing rule and expects
// exactly that one error from both views, live and read back from JSONL.
func TestPairingRules(t *testing.T) {
	for _, tc := range []struct {
		rule   string
		events []Event
	}{
		{"StallEnd without its begin", []Event{
			{Kind: KindStallEnd, Time: 1, Worker: 0, Iter: 1, Cause: "gate", Seconds: 1, BlockWorker: -1, BlockUnit: -1}}},
		{"Detach twice", []Event{
			{Kind: KindDetach, Time: 1, Worker: 2, Cause: "crash"},
			{Kind: KindDetach, Time: 2, Worker: 2, Cause: "crash"}}},
		{"Reconnect without Detach, worker 2", []Event{{Kind: KindReconnect, Time: 1, Worker: 2}}},
		{"Reconnect without Detach, worker -1", []Event{{Kind: KindReconnect, Time: 1, Worker: -1}}},
		{"CheckpointEnd without its begin", []Event{{Kind: KindCheckpointEnd, Time: 1, Worker: -1, Version: 3, Bytes: 10}}},
		{"second PushPlanned for one (worker, iter)", []Event{
			{Kind: KindIterStart, Time: 0, Worker: 1, Iter: 4},
			{Kind: KindPushPlanned, Time: 1, Worker: 1, Iter: 4, Units: 2},
			{Kind: KindPushPlanned, Time: 2, Worker: 1, Iter: 4, Units: 2}}},
		{"RowsLost with an unknown cause", []Event{{Kind: KindRowsLost, Time: 1, Worker: 0, Iter: 1, Units: 2, Cause: "drop"}}},
		{"RowsLost(retransmit) differs from Retransmit units", []Event{
			{Kind: KindRowsLost, Time: 1, Worker: 0, Iter: 1, Units: 3, Cause: "retransmit"},
			{Kind: KindRetransmit, Time: 2, Worker: 0, Iter: 1, Units: 2, Bytes: 20, Seconds: 0.1}}},
		{"ReadStallBegin twice", []Event{
			{Kind: KindReadStallBegin, Time: 1, Worker: -1, Seq: 8},
			{Kind: KindReadStallBegin, Time: 2, Worker: -1, Seq: 8}}},
		{"ReadStallEnd without its begin", []Event{{Kind: KindReadStallEnd, Time: 1, Worker: -1, Seq: 7, Seconds: 0.1}}},
		{"IterEnd without IterStart", []Event{{Kind: KindIterEnd, Time: 1, Worker: 0, Iter: 9, Compute: 1}}},
	} {
		var buf bytes.Buffer
		tr, live := NewJSONLTracer(&buf), NewCritPath()
		for _, e := range tc.events {
			tr.Emit(e)
			live.Emit(e)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		fromFile, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for src, cp := range map[string]*CritPath{"live": live, "JSONL": fromFile} {
			sum, rep := cp.Summary(), cp.Report()
			if len(sum.PairErrors) != 1 || !reflect.DeepEqual(sum.PairErrors, rep.Errors) {
				t.Errorf("%s, %s: Summary().PairErrors = %q, Report().Errors = %q, want one and the same",
					tc.rule, src, sum.PairErrors, rep.Errors)
			}
		}
	}
}

// TestErrorCap floods the analyser with violations: the list stops at the
// cap, and one more line counts what it left out, so it never reads clean.
func TestErrorCap(t *testing.T) {
	cp := NewCritPath()
	for i := 0; i < maxErrors+10; i++ {
		cp.Emit(Event{Kind: KindReconnect, Time: float64(i), Worker: 1})
	}
	errs := cp.Report().Errors
	if len(errs) != maxErrors+1 || errs[maxErrors] != "10 more structural errors not listed" {
		t.Fatalf("%d errors, last %q", len(errs), errs[len(errs)-1])
	}
}

// TestRetransmitNotCountedTwice pins the comm segment to RowsSent airtime:
// a transmission's RowsSent seconds already include its retransmission
// rounds, so the Retransmit events' seconds are totalled in the Summary
// only — for a robot's path and for the aggregator uplink tier.
func TestRetransmitNotCountedTwice(t *testing.T) {
	cp := NewCritPath()
	for _, e := range []Event{
		{Kind: KindIterStart, Time: 0, Worker: 0, Iter: 1},
		{Kind: KindPushPlanned, Time: 1, Worker: 0, Iter: 1, Units: 4},
		{Kind: KindRowsLost, Time: 1.5, Worker: 0, Iter: 1, Units: 1, Cause: "retransmit"},
		{Kind: KindRetransmit, Time: 2, Worker: 0, Iter: 1, Units: 1, Bytes: 10, Seconds: 0.25},
		{Kind: KindRowsSent, Time: 2, Worker: 0, Iter: 1, Units: 4, Seconds: 1, Dir: DirPush},
		{Kind: KindIterEnd, Time: 2, Worker: 0, Iter: 1, Compute: 1, Comm: 1},
		{Kind: KindRowsLost, Time: 2.5, Worker: -1, Units: 1, Cause: "retransmit"},
		{Kind: KindRetransmit, Time: 3, Worker: -1, Units: 1, Bytes: 10, Seconds: 0.5},
		{Kind: KindRowsSent, Time: 3, Worker: -1, Units: 4, Seconds: 1, Dir: DirPush},
	} {
		cp.Emit(e)
	}
	rep, sum := cp.Report(), cp.Summary()
	if len(rep.Errors) != 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}
	w := rep.Workers[0]
	if w.CommSeconds != 1 || w.Coverage != 1 || rep.InfraCommSeconds != 1 || sum.RetransmitSeconds != 0.75 {
		t.Errorf("comm %gs, coverage %g, infra %gs, retransmit %gs; want 1/1/1/0.75",
			w.CommSeconds, w.Coverage, rep.InfraCommSeconds, sum.RetransmitSeconds)
	}
}

// TestConcurrentEmit feeds one analyser from four goroutines at once, as
// livenet does; run under -race it checks the lock covers every view.
func TestConcurrentEmit(t *testing.T) {
	cp := NewCritPath()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := int64(1); n <= 200; n++ {
				t0 := float64(n)
				cp.Emit(Event{Kind: KindIterStart, Time: t0, Worker: w, Iter: n})
				cp.Emit(Event{Kind: KindPushPlanned, Time: t0 + 0.25, Worker: w, Iter: n, Units: 2})
				cp.Emit(Event{Kind: KindRowsSent, Time: t0 + 0.5, Worker: w, Iter: n, Units: 2, Seconds: 0.25, Dir: DirPush})
				cp.Emit(Event{Kind: KindMerge, Time: t0 + 0.5, Worker: w, Iter: n, Unit: w})
				cp.Emit(Event{Kind: KindStallBegin, Time: t0 + 0.5, Worker: w, Iter: n, Cause: "gate", BlockWorker: -1, BlockUnit: -1})
				cp.Emit(Event{Kind: KindStallEnd, Time: t0 + 0.75, Worker: w, Iter: n, Cause: "gate", Seconds: 0.25, BlockWorker: -1, BlockUnit: -1})
				cp.Emit(Event{Kind: KindIterEnd, Time: t0 + 1, Worker: w, Iter: n, Compute: 0.25, Comm: 0.25, Stall: 0.25})
				if n%50 == 0 {
					cp.Summary()
					cp.Report()
				}
			}
		}(w)
	}
	wg.Wait()
	sum, rep := cp.Summary(), cp.Report()
	if len(sum.PairErrors) != 0 || sum.Iters != 800 || sum.Merges != 800 || len(rep.Workers) != 4 {
		t.Fatalf("errors %v, iters %d, merges %d, workers %d; want none/800/800/4",
			sum.PairErrors, sum.Iters, sum.Merges, len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Iters != 200 || w.Coverage != 1 {
			t.Errorf("worker %d: %d iters, coverage %g; want 200 and 1", w.Worker, w.Iters, w.Coverage)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("q", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		r.Histogram("q", nil).Observe(v)
	}
	hs := r.Snapshot().Histograms["q"]
	closeTo := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	// rank(0.5) = 2.5: bucket (1,2] holds observations 2..3, so the
	// interpolated estimate is 1 + (2.5-1)/2 * 1 = 1.75.
	if !closeTo(hs.P50, 1.75) {
		t.Errorf("p50 = %g, want 1.75", hs.P50)
	}
	// Ranks past the last bound saturate at it: the histogram cannot see
	// beyond its overflow bucket.
	if !closeTo(hs.P99, 4) || !closeTo(hs.Quantile(1), 4) {
		t.Errorf("p99 = %g, q(1) = %g, want 4/4", hs.P99, hs.Quantile(1))
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot quantile = %g, want 0", got)
	}
}

func TestAggregateNestedStallCauses(t *testing.T) {
	// Regression: stall pairing used to be keyed by worker alone, so a
	// StallEnd of one cause silently consumed the StallBegin of another.
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	// Legal nesting of two causes on one worker: must pair cleanly.
	tr.Emit(Event{Kind: KindStallBegin, Time: 1, Worker: 0, Iter: 1, Cause: "gate"})
	tr.Emit(Event{Kind: KindStallBegin, Time: 2, Worker: 0, Iter: 1, Cause: "detach"})
	tr.Emit(Event{Kind: KindStallEnd, Time: 3, Worker: 0, Iter: 1, Cause: "detach", Seconds: 1})
	tr.Emit(Event{Kind: KindStallEnd, Time: 4, Worker: 0, Iter: 1, Cause: "gate", Seconds: 3})
	// Cross-cause mismatch on another worker: must be flagged even though
	// a different-cause stall is open there.
	tr.Emit(Event{Kind: KindStallBegin, Time: 5, Worker: 1, Iter: 1, Cause: "gate"})
	tr.Emit(Event{Kind: KindStallEnd, Time: 6, Worker: 1, Iter: 1, Cause: "detach", Seconds: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	an, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := an.Summary()
	if len(s.PairErrors) != 1 {
		t.Fatalf("pair errors = %v, want exactly the worker-1 cause mismatch", s.PairErrors)
	}
	if s.OpenStalls != 1 {
		t.Errorf("open stalls = %d, want 1 (worker 1's gate stall)", s.OpenStalls)
	}
	if s.StallByCause["gate"] != 3 || s.StallByCause["detach"] != 1 {
		t.Errorf("stall by cause = %v, want gate 3 / detach 1", s.StallByCause)
	}
}

// TestEmitAllocatesNothingWarm holds the per-event cost flat: once the
// analyser has seen a worker, an iteration number, a unit and a stall
// cause, emitting them again allocates nothing.
func TestEmitAllocatesNothingWarm(t *testing.T) {
	cp := NewCritPath()
	events := []Event{
		{Kind: KindIterStart, Time: 0, Worker: 0, Iter: 1},
		{Kind: KindRowsSent, Time: 1, Worker: 0, Iter: 1, Units: 4, Bytes: 40, Seconds: 0.5, Dir: DirPush},
		{Kind: KindRowsSent, Time: 1, Worker: -1, Units: 4, Bytes: 40, Seconds: 0.5, Dir: DirPush},
		{Kind: KindStallBegin, Time: 1, Worker: 0, Iter: 1, Cause: "gate", BlockWorker: 1, BlockUnit: 2},
		{Kind: KindMerge, Time: 1.5, Worker: 1, Iter: 1, Unit: 2, Lag: 1},
		{Kind: KindStallEnd, Time: 1.5, Worker: 0, Iter: 1, Cause: "gate", Seconds: 0.5, BlockWorker: 1, BlockUnit: 2},
		{Kind: KindIterEnd, Time: 2, Worker: 0, Iter: 1, Compute: 1, Comm: 0.5, Stall: 0.5},
	}
	emitAll := func() {
		for _, e := range events {
			cp.Emit(e)
		}
	}
	emitAll()
	if n := testing.AllocsPerRun(100, emitAll); n != 0 {
		t.Fatalf("%g allocations per warm pass of %d events, want 0", n, len(events))
	}
	if errs := cp.Report().Errors; len(errs) != 0 {
		t.Fatal(errs)
	}
}
