package obs

import (
	"bytes"
	"testing"
)

// TestAggregateServingEvents checks the serving-tier counters and the
// ReadStall begin/end pairing over a well-formed stream.
func TestAggregateServingEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	p := NewProbe(tr, nil, func() float64 { return 1.0 })

	p.SnapshotPublish(0, 1, 12)
	p.RequestEnqueue(1, 0, 0) // fresh enough, no stall
	p.RequestServe(1, 0, 1, 0.02)
	p.RequestEnqueue(2, 3, 0) // demands version 3 while 0 is published
	p.ReadStallBegin(2, 3, 0)
	p.SnapshotPublish(3, 2, 12)
	p.ReadStallEnd(2, 3, 0.5)
	p.RequestServe(2, 3, 1, 0.52)
	p.RequestEnqueue(3, 9, 3)
	p.ReadStallBegin(3, 9, 3) // never resumed: run halted mid-stall
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
	if s.SnapshotPublishes != 2 {
		t.Errorf("snapshot publishes = %d, want 2", s.SnapshotPublishes)
	}
	if s.RequestsEnqueued != 3 || s.RequestsServed != 2 {
		t.Errorf("requests enqueued %d served %d, want 3/2", s.RequestsEnqueued, s.RequestsServed)
	}
	if s.ReadStalls != 2 || s.ReadStallSeconds != 0.5 {
		t.Errorf("read stalls %d / %g s, want 2 / 0.5", s.ReadStalls, s.ReadStallSeconds)
	}
	if s.OpenReadStalls != 1 {
		t.Errorf("open read stalls = %d, want 1 (request 3 halted mid-stall)", s.OpenReadStalls)
	}
	if s.MaxReadLag != 6 {
		t.Errorf("max read lag = %d, want 6 (request 3 demanded 9 over 3)", s.MaxReadLag)
	}
	closeTo := func(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
	if !closeTo(s.ServeSeconds, 0.54) || !closeTo(s.MaxServeSeconds, 0.52) {
		t.Errorf("serve seconds %g max %g, want 0.54/0.52", s.ServeSeconds, s.MaxServeSeconds)
	}
}

// TestAggregateReadStallPairingViolations checks that a double begin and a
// bare end are both reported as structural trace errors.
func TestAggregateReadStallPairingViolations(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Emit(Event{Kind: KindReadStallEnd, Time: 1, Seq: 7, Seconds: 0.1})
	tr.Emit(Event{Kind: KindReadStallBegin, Time: 2, Seq: 8})
	tr.Emit(Event{Kind: KindReadStallBegin, Time: 3, Seq: 8})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	an, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := an.Summary()
	if len(s.PairErrors) != 2 {
		t.Fatalf("pair errors = %v, want 2", s.PairErrors)
	}
	if s.OpenReadStalls != 1 {
		t.Errorf("open read stalls = %d, want 1", s.OpenReadStalls)
	}
}
