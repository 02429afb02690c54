package obs

import (
	"bytes"
	"math"
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
	tr := NewJSONLTracer(&buf)
	for _, e := range critTrace() {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CritPathFromReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compute, comm, stall, merge := rep.Totals()
	if compute != 4 || comm != 2 || stall != 1 || merge != 0.5 {
		t.Errorf("totals = %g/%g/%g/%g, want 4/2/1/0.5", compute, comm, stall, merge)
	}
}

func TestCritPathInfraAndErrors(t *testing.T) {
	cp := NewCritPath()
	// Aggregator uplink flow: negative worker, charged to infra.
	cp.Emit(Event{Kind: KindRowsSent, Time: 1, Worker: -1, Iter: 3, Units: 8, Seconds: 0.7, Dir: DirPush})
	// Structural violations: an IterEnd with no IterStart and an unpaired
	// StallEnd, which also lands in the unattributed bucket.
	cp.Emit(Event{Kind: KindIterEnd, Time: 2, Worker: 0, Iter: 9, Compute: 1})
	cp.Emit(Event{Kind: KindStallEnd, Time: 3, Worker: 0, Iter: 9, Cause: "gate", Seconds: 0.2,
		BlockWorker: -1, BlockUnit: -1})
	cp.Emit(Event{Kind: KindStallBegin, Time: 4, Worker: 2, Iter: 1, Cause: "gate", BlockWorker: -1, BlockUnit: -1})
	rep := cp.Report()
	if rep.InfraCommSeconds != 0.7 {
		t.Errorf("infra comm = %g, want 0.7", rep.InfraCommSeconds)
	}
	if len(rep.Errors) != 2 {
		t.Errorf("errors = %v, want 2", rep.Errors)
	}
	if rep.OpenStalls != 1 {
		t.Errorf("open stalls = %d, want 1", rep.OpenStalls)
	}
	if rep.Unattributed != 1 {
		t.Errorf("unattributed = %d, want 1", rep.Unattributed)
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
	s, err := Aggregate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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
