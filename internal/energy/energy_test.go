package energy

import (
	"math"
	"testing"
)

func TestPaperModelValues(t *testing.T) {
	m := PaperModel()
	if m.Watts[Compute] != 13.35 || m.Watts[Communicate] != 4.25 || m.Watts[Stall] != 4.04 {
		t.Fatalf("Table III values wrong: %+v", m)
	}
	// Stall is ≈30% of compute power (paper Sec. II-C / VI-A).
	ratio := m.Watts[Stall] / m.Watts[Compute]
	if ratio < 0.25 || ratio > 0.35 {
		t.Fatalf("stall/compute ratio %v not ≈0.3", ratio)
	}
}

func TestMeterIntegration(t *testing.T) {
	m := NewMeter(PaperModel())
	m.Add(Compute, 10)
	m.Add(Communicate, 4)
	m.Add(Stall, 6)
	m.Add(Stall, 1)
	wantJ := 13.35*10 + 4.25*4 + 4.04*7
	if math.Abs(m.Joules()-wantJ) > 1e-9 {
		t.Fatalf("Joules=%v want %v", m.Joules(), wantJ)
	}
	if m.Seconds(Stall) != 7 || m.TotalSeconds() != 21 {
		t.Fatalf("residency wrong: stall=%v total=%v", m.Seconds(Stall), m.TotalSeconds())
	}
}

func TestMeterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMeter(PaperModel()).Add(Compute, -1)
}

func TestStateString(t *testing.T) {
	if Compute.String() != "computation" || Communicate.String() != "communication" || Stall.String() != "stall" {
		t.Fatal("state names wrong")
	}
}

func TestStallCheaperThanComputePerSecond(t *testing.T) {
	// The economics driving the paper: a stalled robot wastes energy, but
	// less per second than computing — the win comes from finishing sooner.
	a := NewMeter(PaperModel())
	a.Add(Stall, 1)
	b := NewMeter(PaperModel())
	b.Add(Compute, 1)
	if a.Joules() >= b.Joules() {
		t.Fatal("stall should cost less per second than compute")
	}
	if a.Joules() == 0 {
		t.Fatal("stall must still cost energy (leakage)")
	}
}
