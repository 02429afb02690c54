package simnet

import (
	"math"
	"testing"

	"rog/internal/trace"
)

func TestParseFaultSchedule(t *testing.T) {
	fs, err := ParseFaultSchedule("crash:1@120+60, blackout:0@60+30,flap:3@100+120/10,crash:2@300")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSchedule{
		{Kind: FaultCrash, Worker: 1, At: 120, Duration: 60},
		{Kind: FaultBlackout, Worker: 0, At: 60, Duration: 30},
		{Kind: FaultFlap, Worker: 3, At: 100, Duration: 120, Period: 10},
		{Kind: FaultCrash, Worker: 2, At: 300},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d events", len(fs))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, fs[i], want[i])
		}
	}
	// The spec grammar round-trips through String.
	again, err := ParseFaultSchedule(fs.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != fs.String() {
		t.Fatalf("round trip: %q vs %q", again.String(), fs.String())
	}
	if fs2, err := ParseFaultSchedule(""); err != nil || fs2 != nil {
		t.Fatal("empty spec should parse to nil")
	}
	for _, bad := range []string{
		"crash1@2", "melt:1@2", "crash:x@2", "crash:1@x", "crash:1@2+x",
		"flap:1@2+10", "flap:1@2/0.5",
		"servercrash@x", "servercrash@2+x", "servercrash:1@2", "servercrash",
	} {
		if _, err := ParseFaultSchedule(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseServerCrash covers the worker-less servercrash production:
// "servercrash@t" restarts immediately, "servercrash@t+dur" after dur
// seconds of extra downtime; both round-trip through String.
func TestParseServerCrash(t *testing.T) {
	fs, err := ParseFaultSchedule("servercrash@45, servercrash@120+15,crash:0@10")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSchedule{
		{Kind: FaultServerCrash, Worker: -1, At: 45},
		{Kind: FaultServerCrash, Worker: -1, At: 120, Duration: 15},
		{Kind: FaultCrash, Worker: 0, At: 10},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d events", len(fs))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, fs[i], want[i])
		}
	}
	if err := fs.Validate(2); err != nil {
		t.Fatalf("valid servercrash schedule rejected: %v", err)
	}
	again, err := ParseFaultSchedule(fs.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != fs.String() {
		t.Fatalf("round trip: %q vs %q", again.String(), fs.String())
	}
	// A servercrash that somehow targets a worker is rejected.
	if err := (FaultSchedule{{Kind: FaultServerCrash, Worker: 0, At: 1}}).Validate(2); err == nil {
		t.Fatal("worker-targeted servercrash accepted")
	}
}

// TestInjectorServerCrashCallbacks: the crash fires at At with the extra
// downtime, the restart at At+Duration — and a zero-duration event still
// crashes before it restarts.
func TestInjectorServerCrashCallbacks(t *testing.T) {
	k := NewKernel()
	links := []*trace.Trace{trace.Constant(8, 1000, 1), trace.Constant(8, 1000, 1)}
	ch := NewChannel(k, links, 1)
	inj := NewInjector(k, ch)
	type ev struct {
		what string
		at   float64
		dur  float64
	}
	var events []ev
	inj.OnServerCrash = func(d float64) { events = append(events, ev{"crash", k.Now(), d}) }
	inj.OnServerRestart = func() { events = append(events, ev{"restart", k.Now(), 0}) }
	if err := inj.Install(FaultSchedule{
		{Kind: FaultServerCrash, Worker: -1, At: 10, Duration: 5},
		{Kind: FaultServerCrash, Worker: -1, At: 40},
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle(1000)
	want := []ev{{"crash", 10, 5}, {"restart", 15, 0}, {"crash", 40, 0}, {"restart", 40, 0}}
	if len(events) != len(want) {
		t.Fatalf("events %+v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, events[i], want[i])
		}
	}
}

func TestFaultScheduleValidate(t *testing.T) {
	for name, fs := range map[string]FaultSchedule{
		"worker range": {{Kind: FaultCrash, Worker: 4, At: 1}},
		"negative t":   {{Kind: FaultCrash, Worker: 0, At: -1}},
		"negative dur": {{Kind: FaultBlackout, Worker: 0, At: 1, Duration: -2}},
		"flap period":  {{Kind: FaultFlap, Worker: 0, At: 1, Duration: 10}},
		"flap dur":     {{Kind: FaultFlap, Worker: 0, At: 1, Period: 2}},
	} {
		if err := fs.Validate(4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := FaultSchedule{{Kind: FaultCrash, Worker: 3, At: 0, Duration: 5}}
	if err := ok.Validate(4); err != nil {
		t.Fatal(err)
	}
}

// A 10s blackout in the middle of a constant-rate flow must delay its
// completion by exactly 10s, byte-for-byte.
func TestBlackoutStallsFlowExactly(t *testing.T) {
	k := NewKernel()
	// 8 Mbps → 1e6 bytes/s; a 20e6-byte flow alone takes 20 s.
	ch := NewChannel(k, []*trace.Trace{trace.Constant(8, 1000, 1)}, 1)
	var doneAt float64
	ch.StartFlow(0, 20e6, func() { doneAt = k.Now() })

	inj := NewInjector(k, ch)
	if err := inj.Install(FaultSchedule{{Kind: FaultBlackout, Worker: 0, At: 5, Duration: 10}}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle(100000)
	if math.Abs(doneAt-30) > 1e-6 {
		t.Fatalf("flow finished at %.6f, want 30", doneAt)
	}
}

// A flapping link with a 50% duty cycle roughly doubles transfer time; the
// same seed gives bit-identical completion times.
func TestFlapIsDeterministic(t *testing.T) {
	run := func() float64 {
		k := NewKernel()
		ch := NewChannel(k, []*trace.Trace{trace.Constant(8, 1000, 1)}, 1)
		var doneAt float64
		ch.StartFlow(0, 10e6, func() { doneAt = k.Now() })
		inj := NewInjector(k, ch)
		if err := inj.Install(FaultSchedule{{Kind: FaultFlap, Worker: 0, At: 0, Duration: 100, Period: 2}}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle(100000)
		return doneAt
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("flap runs diverged: %v vs %v", a, b)
	}
	// 10e6 bytes at 1e6 B/s needs 10 up-seconds; with 2s-down/2s-up
	// starting down, the 10th up-second ends at t=20.
	if math.Abs(a-20) > 1e-6 {
		t.Fatalf("flap completion %.6f, want 20", a)
	}
}

// Crash callbacks fire at the scheduled virtual instants.
func TestInjectorCrashCallbacks(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{trace.Constant(8, 1000, 1), trace.Constant(8, 1000, 1)}, 1)
	inj := NewInjector(k, ch)
	var events []string
	inj.OnCrash = func(w int) { events = append(events, "crash", string(rune('0'+w))) }
	inj.OnRejoin = func(w int) { events = append(events, "rejoin", string(rune('0'+w))) }
	if err := inj.Install(FaultSchedule{
		{Kind: FaultCrash, Worker: 1, At: 10, Duration: 5},
		{Kind: FaultCrash, Worker: 0, At: 20},
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle(1000)
	got := ""
	for _, e := range events {
		got += e + " "
	}
	if got != "crash 1 rejoin 1 crash 0 " {
		t.Fatalf("event order %q", got)
	}
	// Out-of-range worker is rejected at install time.
	if err := inj.Install(FaultSchedule{{Kind: FaultCrash, Worker: 7, At: 1}}); err == nil {
		t.Fatal("bad worker accepted")
	}
}

// A downed flow must not consume airtime share: its peer should drain at
// full solo capacity during the blackout.
func TestBlackoutFreesAirtime(t *testing.T) {
	k := NewKernel()
	links := []*trace.Trace{trace.Constant(8, 1000, 1), trace.Constant(8, 1000, 1)}
	ch := NewChannel(k, links, 1)
	ch.SetLinkDown(0, true)
	var doneAt float64
	ch.StartFlow(0, 1e6, func() {})
	ch.StartFlow(1, 10e6, func() { doneAt = k.Now() })
	k.RunUntilIdle(100000)
	// With device 0 dark, device 1 gets the whole channel: 10 s, not 20 s.
	if math.Abs(doneAt-10) > 1e-6 {
		t.Fatalf("peer finished at %.6f, want 10 (no contention from downed link)", doneAt)
	}
	if !ch.LinkDown(0) || ch.LinkMbps(0) != 0 {
		t.Fatal("downed link should report zero capacity")
	}
}

// Server reachability and a link's blackout are two states: the server
// coming back must not lift a blackout, and a blackout lifting must not
// reach a dead server.
func TestServerDownIndependentOfBlackout(t *testing.T) {
	k := NewKernel()
	links := []*trace.Trace{trace.Constant(8, 1000, 1), trace.Constant(8, 1000, 1)}
	ch := NewChannel(k, links, 1)
	var done [2]float64
	ch.StartFlow(0, 1e6, func() { done[0] = k.Now() }) // 1 s of solo airtime
	ch.StartFlow(1, 1e6, func() { done[1] = k.Now() })
	ch.SetLinkDown(0, true)                       // device 0 blacked out over [0, 30)
	k.At(0.5, func() { ch.SetServerDown(true) })  // server dead over [0.5, 20)
	k.At(10, func() { ch.SetLinkDown(1, true) })  // a flap on device 1 inside the outage:
	k.At(15, func() { ch.SetLinkDown(1, false) }) // its up-edge moves no bytes
	k.At(20, func() { ch.SetServerDown(false) })  // the restart does not light device 0
	k.At(30, func() { ch.SetLinkDown(0, false) })
	k.RunUntilIdle(100000)
	// Device 1: 0.5 s alone before the outage, the other 0.5 s after it.
	if math.Abs(done[1]-20.5) > 1e-6 {
		t.Fatalf("device 1 finished at %.6f, want 20.5 (nothing drains while the server is down)", done[1])
	}
	if math.Abs(done[0]-31) > 1e-6 {
		t.Fatalf("device 0 finished at %.6f, want 31 (its blackout outlives the server restart)", done[0])
	}
}
