package simnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rog/internal/tensor"
	"rog/internal/trace"
)

// refSchedule is one flow schedule for the brute-force reference: flow i
// starts at starts[i] on devices[i] with sizes[i] bytes and is cancelled at
// cancels[i] (negative = never); each blackout darkens one device's link
// over [from, to).
type refSchedule struct {
	links   []*trace.Trace
	starts  []float64
	devices []int
	sizes   []float64
	cancels []float64
	dark    []blackout
}

type blackout struct {
	dev      int
	from, to float64
}

// referenceCompletionTimes integrates the fluid-flow model by brute force
// (tiny fixed steps) and returns each flow's completion time, -1 for a flow
// cancelled first. It is the specification the event-driven Channel must
// match: airtime is shared equally among the started, unfinished,
// uncancelled flows whose link is lit, and a flow on a dark link stands
// still.
func referenceCompletionTimes(s refSchedule, dt float64) []float64 {
	n := len(s.sizes)
	remaining := append([]float64(nil), s.sizes...)
	done := make([]float64, n)
	for i := range done {
		done[i] = -1
	}
	for now := 0.0; now < 10000; now += dt {
		live := func(i int) bool {
			return done[i] < 0 && s.starts[i] <= now && (s.cancels[i] < 0 || now < s.cancels[i])
		}
		lit := func(i int) bool {
			for _, b := range s.dark {
				if s.devices[i] == b.dev && now >= b.from && now < b.to {
					return false
				}
			}
			return true
		}
		active, pending := 0, false
		for i := 0; i < n; i++ {
			if live(i) && lit(i) {
				active++
			}
			if done[i] < 0 && (s.cancels[i] < 0 || now < s.cancels[i]) {
				pending = true
			}
		}
		if !pending {
			return done
		}
		for i := 0; i < n; i++ {
			if !live(i) || !lit(i) {
				continue
			}
			rate := s.links[s.devices[i]].At(now) * 1e6 / 8 / float64(active)
			remaining[i] -= rate * dt
			if remaining[i] <= 0 {
				done[i] = now + dt
			}
		}
	}
	return done
}

// TestChannelMatchesBruteForceIntegration cross-validates the event-driven
// channel against brute-force integration over random flow schedules on
// fluctuating traces: eight small ones, then two with 64–96 flows in the
// air at once, a dozen of them cancelled in flight and one link blacked out
// for two seconds — the flow list's ordered removal, the contention count
// kept across cancels and blackouts, and the merged schedule pass all sit
// under this. Every trial also hands one link's blackout to another in a
// single event (SetLinkDown twice, the contention count unchanged when the
// two links carry as many flows), and starts zero-byte flows in the same
// event as others, after their schedule: the rates the channel keeps from
// one event to the next, and the contention its recheck is armed with, must
// follow both. The zero-byte flows must complete at the instant they start.
func TestChannelMatchesBruteForceIntegration(t *testing.T) {
	r := tensor.NewRNG(2024)
	for trial := 0; trial < 10; trial++ {
		// The blackouts and zero-byte flows draw from their own stream, so the
		// flow schedules are the ones the tolerance below was set on.
		rx := tensor.NewRNG(uint64(7000 + trial))
		big := trial >= 8
		nDev, nFlows := 2+r.Intn(3), 2+r.Intn(4)
		if big {
			nDev, nFlows = 8, 64+r.Intn(33)
		}
		s := refSchedule{links: make([]*trace.Trace, nDev)}
		for d := range s.links {
			s.links[d] = trace.GenerateEnv(trace.Outdoor, 60, r.Uint64()%10000)
			if big {
				// Sample periods that are exact in binary. With the generator's
				// 0.1 s, a few percent of boundary instants b = i·Dt divide back
				// to i−1 and Trace.At reads the previous sample for that whole
				// interval; the reference, stepping through the interval, does
				// not, and over a hundred flows' worth of events the two drift
				// apart by more than the tolerance below. That rounding is
				// Trace.At's, as old as the channel, and not under test here.
				// Two periods whose grids do not nest, interleaved over the
				// devices: a schedule pass must find each one's next boundary.
				s.links[d].Dt = []float64{0.125, 0.1875}[d%2]
			}
		}
		for i := 0; i < nFlows; i++ {
			start, size, cancel := r.Float64()*5, (0.5+4*r.Float64())*1e6, -1.0
			if big {
				// All started within half a second and far too large to finish
				// in it: every flow contends with every other.
				start, size = r.Float64()*0.5, (1+2*r.Float64())*1e6
				if i%6 == 0 {
					cancel = 0.6 + r.Float64()
				}
			}
			s.starts = append(s.starts, start)
			s.devices = append(s.devices, r.Intn(nDev))
			s.sizes = append(s.sizes, size)
			s.cancels = append(s.cancels, cancel)
		}
		// Device 0's blackout hands over to device 1's at mid, in one event.
		from := rx.Float64() * 4
		if big {
			from = 0.5 + rx.Float64()*0.5
		}
		mid := from + 0.3 + rx.Float64()
		s.dark = append(s.dark, blackout{0, from, mid}, blackout{1, mid, mid + 0.3 + rx.Float64()})
		if big {
			s.dark = append(s.dark, blackout{2, 1.0, 3.0})
		}

		// Event-driven run.
		k := NewKernel()
		ch := NewChannel(k, s.links, 1)
		got := make([]float64, nFlows)
		for i := range got {
			got[i] = -1
		}
		peak, zeros := 0, 0
		for i := 0; i < nFlows; i++ {
			i, zero := i, i == 0 || rx.Intn(3) == 0
			k.At(s.starts[i], func() {
				f := ch.StartFlow(s.devices[i], s.sizes[i], func() { got[i] = k.Now() })
				peak = max(peak, ch.ActiveFlows())
				if s.cancels[i] >= 0 {
					k.At(s.cancels[i], func() { ch.Cancel(f) })
				}
				if zero {
					start := k.Now()
					ch.StartFlow((i+1)%len(s.links), 0, func() {
						if k.Now() != start {
							t.Errorf("trial %d: zero-byte flow started at %v completed at %v", trial, start, k.Now())
						}
						zeros++
					})
				}
			})
		}
		k.At(s.dark[0].from, func() { ch.SetLinkDown(0, true) })
		k.At(mid, func() { ch.SetLinkDown(0, false); ch.SetLinkDown(1, true) })
		k.At(s.dark[1].to, func() { ch.SetLinkDown(1, false) })
		for _, b := range s.dark[2:] {
			k.At(b.from, func() { ch.SetLinkDown(b.dev, true) })
			k.At(b.to, func() { ch.SetLinkDown(b.dev, false) })
		}
		k.RunUntilIdle(50_000_000)
		if zeros == 0 {
			t.Fatalf("trial %d: no zero-byte flow completed", trial)
		}
		if big && peak < 64 {
			t.Fatalf("trial %d: only %d flows were ever concurrent, want ≥ 64", trial, peak)
		}
		if ch.ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows left in the channel", trial, ch.ActiveFlows())
		}

		// A finishing flow overshoots by up to one step of its share; with a
		// hundred flows finishing in turn that adds up, so the big trials
		// take a finer step.
		dt := 0.001
		if big {
			dt = 0.0001
		}
		want := referenceCompletionTimes(s, dt)
		for i := 0; i < nFlows; i++ {
			if s.cancels[i] >= 0 {
				if got[i] >= 0 || want[i] >= 0 {
					t.Fatalf("trial %d flow %d cancelled at %.3f yet completed: got %v want %v", trial, i, s.cancels[i], got[i], want[i])
				}
				continue
			}
			if got[i] < 0 || want[i] < 0 {
				t.Fatalf("trial %d flow %d incomplete: got %v want %v", trial, i, got[i], want[i])
			}
			// The reference discretization error dominates the tolerance.
			if math.Abs(got[i]-want[i]) > 0.05+want[i]*0.01 {
				t.Fatalf("trial %d flow %d: event-driven %.4f vs brute force %.4f",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestChannelSameInstantCompletionOrder pins the completion order of flows
// that drain at the same instant: by device, and within one device in start
// order. Two equal flows share device 0 and a third rides device 1 at the
// same rate, so all three drain together; fifty fresh runs must complete
// them in the same sequence. (Before the flow list was ordered the drained
// flows were collected by ranging a Go map and sorted by device with an
// unstable swap sort, so the two device-0 flows completed in a run-dependent
// order: at the parent commit this test fails with probability 1 − 2⁻⁴⁹.)
func TestChannelSameInstantCompletionOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		k := NewKernel()
		ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
		var order []string
		ch.StartFlow(1, 1e6, func() { order = append(order, "dev1") })
		ch.StartFlow(0, 1e6, func() { order = append(order, "dev0-first") })
		ch.StartFlow(0, 1e6, func() { order = append(order, "dev0-second") })
		k.RunUntilIdle(1e6)
		if want := []string{"dev0-first", "dev0-second", "dev1"}; !slices.Equal(order, want) {
			t.Fatalf("run %d: completion order %v, want %v", run, order, want)
		}
	}
}

// TestChannelSteadyStateAllocations guards the event path: once the flow
// list and the kernel queue have their capacity, starting a flow and running
// it to completion allocates the Flow record and nothing else — the recheck
// timer is the channel's one reusable Timer, its callback is bound once, and
// the drained-flow scratch is the channel's.
func TestChannelSteadyStateAllocations(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	cycle := func() {
		ch.StartFlow(0, 1e5, nil)
		ch.StartFlow(1, 2e5, nil)
		k.RunUntilIdle(1e6)
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 2 {
		t.Fatalf("two flows start to finish: %v allocs, want 2 (the Flow records)", n)
	}
}

// TestChannelArmsOncePerEventAtReservedSeq pins where the recheck lands
// among same-instant events. However many schedules an event makes, the
// channel is armed once, before the kernel's next event, at the sequence
// number its last schedule reserved, and over the flows and contention that
// schedule saw. Here the last schedule finds a drained zero-byte flow, so the
// recheck is due at once. It must fire after the event's first After(0)
// (reserved before that schedule) and before the next (reserved after it).
// It also completes the zero-byte flow started after the schedule, ahead of
// that flow's own completion event; the event ends with an After(0).
func TestChannelArmsOncePerEventAtReservedSeq(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	k.At(1, func() {
		ch.StartFlow(0, 0, log("zero")) // completes in its own event, first
		ch.StartFlow(0, 1e5, log("flow"))
		k.After(0, log("mark1"))
		ch.StartFlow(1, 2e5, log("flow2")) // the last schedule: zero is drained, due now
		k.After(0, log("mark2"))
		ch.StartFlow(1, 0, log("late-zero")) // unseen by the arm, completed by the recheck
		k.After(0, log("end"))
	})
	k.Step()
	if len(k.pending) != 1 || !ch.pending {
		t.Fatalf("after an event with two schedules: %d channels pending, want the one", len(k.pending))
	}
	k.RunUntilIdle(1000)
	want := []string{"zero", "mark1", "late-zero", "mark2", "end", "flow", "flow2"}
	if !slices.Equal(order, want) {
		t.Fatalf("event order %v, want %v", order, want)
	}

	// A zero-byte flow started after the last schedule neither makes the
	// recheck due at once nor takes a share of the airtime it is armed with:
	// the flow's completion is armed at its own rate, on a trace with no
	// boundary to correct it.
	k = NewKernel()
	steady := trace.Constant(8, 3600, 1000)
	ch = NewChannel(k, []*trace.Trace{steady, steady}, 1)
	order, done := nil, -1.0
	k.At(1, func() {
		ch.StartFlow(0, 1e5, func() { done = k.Now() })
		k.After(0, log("mark"))
		ch.StartFlow(1, 0, log("late-zero"))
	})
	k.RunUntilIdle(1000)
	if want := []string{"mark", "late-zero"}; !slices.Equal(order, want) {
		t.Fatalf("event order %v, want %v", order, want)
	}
	if want := 1 + 1e5/(8*1e6/8); done != want {
		t.Fatalf("flow completed at %v, want %v: armed at a share it never had", done, want)
	}
}

// TestChannelRatesFollowDarkHandover darkens one link and lights another in
// one event, at the instant and with the contention count the previous
// event's arm computed its rates for. The kept rates must not survive the
// handover: the flow on the newly dark link stands still, and the other
// runs alone.
func TestChannelRatesFollowDarkHandover(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	done := []float64{-1, -1}
	for d := range done {
		ch.StartFlow(d, 1e6, func() { done[d] = k.Now() })
	}
	k.At(1, func() { ch.SetLinkDown(1, true) }) // rates at (1, one lit): device 0 alone
	k.At(1, func() { ch.SetLinkDown(1, false); ch.SetLinkDown(0, true) })
	k.RunUntilIdle(1000)
	// Half of each flow went over [0, 1) at 4 Mbps; device 1 then sends the
	// other half alone at 8 Mbps, and device 0 stays dark.
	if done[0] != -1 || math.Abs(done[1]-1.5) > 1e-9 {
		t.Fatalf("completions %v, want device 0 never and device 1 at 1.5", done)
	}
}

// TestChannelFlowStartedByACompletion starts a flow from another's
// completion, as a robot's pull follows its push: the completion scan has
// just computed every rate for this instant and contention count, the
// finish and the start leave the count where it was, and the arm reuses
// those rates, so the new flow must have its own from the start. Two flows
// share two flat 8 Mbps links at 4 Mbps each: the first 1e5 bytes are done
// at 0.2 s, and the 1e5 bytes started then at 0.4 s.
func TestChannelFlowStartedByACompletion(t *testing.T) {
	k := NewKernel()
	ch := NewChannel(k, []*trace.Trace{flat(8), flat(8)}, 1)
	done := -1.0
	ch.StartFlow(1, 1e6, nil)
	ch.StartFlow(0, 1e5, func() {
		ch.StartFlow(0, 1e5, func() { done = k.Now() })
	})
	k.RunUntilIdle(1000)
	if math.Abs(done-0.4) > 1e-9 {
		t.Fatalf("the flow started at 0.2 s completed at %v, want 0.4", done)
	}
}

// BenchmarkChannel runs the shared channel in steady state with n flows in
// the air, one per device on its own fluctuating trace, each restarted with
// a fresh size the moment it completes. An op is one kernel event (a
// completion scan or a trace boundary, with its arm), so ns/op is the cost
// of an event.
func BenchmarkChannel(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			links := make([]*trace.Trace, n)
			for d := range links {
				links[d] = trace.GenerateEnv(trace.Outdoor, 60, uint64(d)+1)
			}
			k := NewKernel()
			ch := NewChannel(k, links, 1)
			r := tensor.NewRNG(1)
			var start func(d int)
			start = func(d int) { ch.StartFlow(d, (0.5+r.Float64())*1e5, func() { start(d) }) }
			for d := range links {
				start(d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !k.Step() {
					b.Fatal("the channel went idle")
				}
			}
		})
	}
}
