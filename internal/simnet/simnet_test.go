package simnet

import (
	"math"
	"testing"

	"rog/internal/trace"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(2, func() { order = append(order, 2) })
	k.At(1, func() { order = append(order, 1) })
	k.At(1, func() { order = append(order, 10) }) // same time: FIFO
	k.At(3, func() { order = append(order, 3) })
	k.RunUntilIdle(100)
	want := []int{1, 10, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order=%v", order)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("now=%v", k.Now())
	}
}

func TestKernelAfterAndStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.After(1, func() { fired++ })
	tm := k.After(2, func() { fired += 10 })
	tm.Stop()
	k.RunUntilIdle(10)
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []float64
	k.After(1, func() {
		times = append(times, k.Now())
		k.After(1, func() { times = append(times, k.Now()) })
	})
	k.RunUntilIdle(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times=%v", times)
	}
}

func TestKernelPastEventClamped(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	k.Step()
	fired := false
	k.At(1, func() { fired = true }) // in the past: runs now
	k.Step()
	if !fired || k.Now() != 5 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelEventBudget(t *testing.T) {
	k := NewKernel()
	var reschedule func()
	reschedule = func() { k.After(1, reschedule) }
	k.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("expected event-budget panic")
		}
	}()
	k.RunUntilIdle(50)
}

// oneMbpsFor returns a constant trace at the given Mbps for duration secs.
func flat(mbps float64) *trace.Trace { return trace.Constant(mbps, 3600, 0.1) }

func TestSingleFlowCompletionTime(t *testing.T) {
	k := NewKernel()
	// 8 Mbps = 1e6 bytes/s.
	ch := NewChannel(k, []*trace.Trace{flat(8)}, 1)
	var doneAt float64 = -1
	ch.StartFlow(0, 2e6, func() { doneAt = k.Now() })
	k.RunUntilIdle(1e6)
	if math.Abs(doneAt-2.0) > 1e-6 {
		t.Fatalf("completion at %v, want 2.0", doneAt)
	}
}

func TestTwoFlowsShareAirtime(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	var d0, d1 float64 = -1, -1
	ch.StartFlow(0, 1e6, func() { d0 = k.Now() })
	ch.StartFlow(1, 1e6, func() { d1 = k.Now() })
	k.RunUntilIdle(1e6)
	// Each would take 1s alone; sharing doubles both to 2s.
	if math.Abs(d0-2.0) > 1e-6 || math.Abs(d1-2.0) > 1e-6 {
		t.Fatalf("d0=%v d1=%v want 2.0", d0, d1)
	}
}

func TestLateArrivalSpeedsUpAfterFirstFinishes(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	var d0, d1 float64 = -1, -1
	ch.StartFlow(0, 1e6, func() { d0 = k.Now() })
	// Second flow arrives at t=0.5 with 1.5e6 bytes.
	k.At(0.5, func() { ch.StartFlow(1, 1.5e6, func() { d1 = k.Now() }) })
	k.RunUntilIdle(1e6)
	// Flow0: 0.5s alone (0.5e6 sent) then shares; 0.5e6 left at 0.5e6/s →
	// finishes at 1.5s. Flow1: from 0.5 to 1.5 sends 0.5e6, then alone
	// 1e6 at 1e6/s → finishes at 2.5s.
	if math.Abs(d0-1.5) > 1e-6 || math.Abs(d1-2.5) > 1e-6 {
		t.Fatalf("d0=%v d1=%v want 1.5/2.5", d0, d1)
	}
}

func TestTraceBoundaryRespected(t *testing.T) {
	k := NewKernel()
	// 8 Mbps for 1s, then 4 Mbps (1e6 B/s then 0.5e6 B/s).
	tr := &trace.Trace{Dt: 1, Samples: []float64{8, 4, 4, 4, 4, 4, 4, 4}}
	ch := NewChannel(k, []*trace.Trace{tr}, 1)
	var done float64 = -1
	ch.StartFlow(0, 1.5e6, func() { done = k.Now() })
	k.RunUntilIdle(1e6)
	// 1e6 in the first second, 0.5e6 at 0.5e6/s → 1s more → t=2.
	if math.Abs(done-2.0) > 1e-6 {
		t.Fatalf("done=%v want 2.0", done)
	}
}

func TestCancelReturnsBytesSent(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8)}, 1)
	f := ch.StartFlow(0, 10e6, nil)
	var got float64
	k.At(1.5, func() { got = ch.Cancel(f) })
	k.RunUntilIdle(1e6)
	if math.Abs(got-1.5e6) > 1 {
		t.Fatalf("cancelled after 1.5s sent %v bytes, want 1.5e6", got)
	}
	if f.Done() {
		t.Fatal("cancelled flow reported done")
	}
	if ch.ActiveFlows() != 0 {
		t.Fatal("flow still active after cancel")
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8)}, 1)
	done := false
	ch.StartFlow(0, 0, func() { done = true })
	k.RunUntilIdle(10)
	if !done || k.Now() != 0 {
		t.Fatalf("done=%v now=%v", done, k.Now())
	}
}

func TestScaleMultipliesCapacity(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8)}, 2)
	var done float64 = -1
	ch.StartFlow(0, 2e6, func() { done = k.Now() })
	k.RunUntilIdle(1e6)
	if math.Abs(done-1.0) > 1e-6 {
		t.Fatalf("done=%v want 1.0 at 2x scale", done)
	}
	if ch.LinkMbps(0) != 16 {
		t.Fatalf("LinkMbps=%v", ch.LinkMbps(0))
	}
}

func TestAsymmetricLinks(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(4)}, 1)
	var d0, d1 float64 = -1, -1
	ch.StartFlow(0, 1e6, func() { d0 = k.Now() })
	ch.StartFlow(1, 1e6, func() { d1 = k.Now() })
	k.RunUntilIdle(1e6)
	// Shared airtime: flow0 runs at 0.5e6 B/s, flow1 at 0.25e6 B/s.
	// Flow0 finishes at 2s; then flow1 alone at 0.5e6 B/s with 0.5e6 left
	// → finishes at 3s.
	if math.Abs(d0-2.0) > 1e-6 || math.Abs(d1-3.0) > 1e-6 {
		t.Fatalf("d0=%v d1=%v want 2/3", d0, d1)
	}
}

func TestBytesConservedUnderRandomTrace(t *testing.T) {
	k := NewKernel()
	tr := trace.GenerateEnv(trace.Outdoor, 120, 3)
	ch := NewChannel(k, []*trace.Trace{tr}, 1)
	const totalBytes = 5e6
	var doneAt float64 = -1
	f := ch.StartFlow(0, totalBytes, func() { doneAt = k.Now() })
	k.RunUntilIdle(1e6)
	if doneAt < 0 {
		t.Fatal("flow never completed")
	}
	if math.Abs(f.Sent()-totalBytes) > 1 {
		t.Fatalf("sent %v != %v", f.Sent(), totalBytes)
	}
	// Independently integrate the trace to the completion time: the
	// integral of capacity over [0,doneAt] must equal totalBytes.
	var integral float64
	step := tr.Dt
	for t0 := 0.0; t0 < doneAt; t0 += step {
		end := t0 + step
		if end > doneAt {
			end = doneAt
		}
		integral += tr.At(t0) * 1e6 / 8 * (end - t0)
	}
	if math.Abs(integral-totalBytes) > totalBytes*1e-6 {
		t.Fatalf("trace integral %v != %v", integral, totalBytes)
	}
}

func TestManyFlowsConserveBytes(t *testing.T) {
	k := NewKernel()
	links := make([]*trace.Trace, 4)
	for i := range links {
		links[i] = trace.GenerateEnv(trace.Indoor, 120, uint64(10+i))
	}
	ch := NewChannel(k, links, 1)
	sizes := []float64{1e6, 2e6, 3e6, 4e6}
	flows := make([]*Flow, 4)
	for i, s := range sizes {
		flows[i] = ch.StartFlow(i, s, nil)
	}
	k.RunUntilIdle(1e6)
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d not done", i)
		}
		if math.Abs(f.Sent()-sizes[i]) > 1 {
			t.Fatalf("flow %d sent %v want %v", i, f.Sent(), sizes[i])
		}
	}
}

func TestStartFlowValidation(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8)}, 1)
	for name, f := range map[string]func(){
		"badDevice": func() { ch.StartFlow(5, 1, nil) },
		"negBytes":  func() { ch.StartFlow(0, -1, nil) },
		"badScale":  func() { NewChannel(k, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
