package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rog/internal/compress"
	"rog/internal/obs"
)

// seedCopies merges one row per unit from worker 1 at iteration iter, so
// every worker's averaged copy holds mass in every unit.
func seedCopies(s *State, iter int64) {
	for u := 0; u < s.part.NumUnits(); u++ {
		vals := make([]float32, s.part.Unit(u).Len)
		for i := range vals {
			vals[i] = float32(1+(i+u)%3) * float32(1-2*(i%2))
		}
		s.Merge(1, u, vals, iter)
	}
}

func allUnitIDs(s *State) []int { return allUnits(s.part.NumUnits()).Units }

// TestPeerHoldTakeSettle walks the pull's contract on one worker: hold
// empties the planned units into payloads, a merge landing afterwards stays
// in the copy, Take settles a unit once, Settle folds back exactly what the
// untaken payloads carried, and a second hold over an unsettled one takes its
// rows back first instead of dropping them.
func TestPeerHoldTakeSettle(t *testing.T) {
	s, part := testState(t, 3)
	seedCopies(s, 1)
	d := NewPeer(0, part)
	units := allUnitIDs(s)

	d.hold(s, units)
	for _, u := range units {
		if got := s.Acc[0].MeanAbs(u); got != 0 {
			t.Fatalf("unit %d still holds %g after hold", u, got)
		}
		if got := s.Acc[2].MeanAbs(u); got == 0 {
			t.Fatalf("hold for worker 0 drained worker 2's unit %d", u)
		}
	}
	seedCopies(s, 2) // lands while the pull is out
	late0 := append([]float32(nil), s.Acc[0].Unit(0)...)
	late1 := append([]float32(nil), s.Acc[0].Unit(1)...)

	p, ok := d.Take(0)
	if !ok || p.Row != 0 {
		t.Fatalf("Take(0) = row %d, held %v", p.Row, ok)
	}
	if _, again := d.Take(0); again {
		t.Fatal("unit 0 settled twice")
	}
	carried := make([]float32, part.Unit(1).Len)
	compress.Decode(d.Held(1), carried)

	d.Settle(s, nil)
	for i, v := range s.Acc[0].Unit(0) {
		if v != late0[i] {
			t.Fatalf("delivered unit 0[%d] = %g after Settle, want only the late merge's %g", i, v, late0[i])
		}
	}
	for i, v := range s.Acc[0].Unit(1) {
		if want := late1[i] + carried[i]; v != want {
			t.Fatalf("undelivered unit 1[%d] = %g, want the late merge's %g plus the carried %g", i, v, late1[i], carried[i])
		}
	}
	if _, ok := d.Take(1); ok {
		t.Fatal("Settle left unit 1 held")
	}

	// A pull planned over an unsettled one takes that one's rows back.
	d.hold(s, []int{2})
	carried = make([]float32, part.Unit(2).Len)
	compress.Decode(d.Held(2), carried)
	d.hold(s, []int{3})
	for i, v := range s.Acc[0].Unit(2) {
		if v != carried[i] {
			t.Fatalf("unsettled unit 2[%d] = %g after the next hold, want the carried %g back", i, v, carried[i])
		}
	}
}

// TestPeerStepWithoutAllocating pins the allocation trap the held pull was
// built around, over the whole step: a warm merge → PushDone → Gate →
// HoldPull → Settle cycle — including a cut pull that folds half its
// rows back — must cost nothing beyond what the plan's own Units cost anyway
// (a per-pull map or slice, a stall closure, a boxed stamp or a payload's
// fresh bits would show here).
func TestPeerStepWithoutAllocating(t *testing.T) {
	const workers = 3
	s, part := testState(t, workers)
	units := allUnitIDs(s)
	vals := make([][]float32, len(units))
	for u := range vals {
		vals[u] = make([]float32, part.Unit(u).Len)
	}
	planOnly := testing.AllocsPerRun(50, func() { s.PlanPull(0, 1) })
	var peers [workers]*Peer
	for w := range peers {
		peers[w] = NewPeer(w, part)
	}
	it := int64(0)
	cycle := func() {
		it++
		for _, p := range peers {
			s.MergeBatch(p.worker, units, vals, it)
			s.Merge(p.worker, 0, vals[0], it) // a duplicate: the single-row entry, nothing lands
			p.PushDone(s, it, 0.1, 0.1, true)
			// A wait opens (eight iterations ahead of the team) and ends.
			if p.Gate(s, it+8, 0) || !p.Gate(s, it, 1) {
				t.Fatalf("worker %d at iteration %d, the team one behind at most: gate open 8 ahead or closed level", p.worker, it)
			}
			plan := p.HoldPull(s, it)
			for _, u := range plan.Units[:len(plan.Units)/2] {
				p.Take(u)
			}
			p.Settle(s, plan.Units[len(plan.Units)/2:len(plan.Units)/2+1])
		}
	}
	cycle() // grow the reused buffers once
	if got, want := testing.AllocsPerRun(50, cycle), workers*planOnly; got != want {
		t.Fatalf("a step cycle allocated %.1f times; building its plans alone %.1f", got, want)
	}
}

// TestHeldPullSurvivesRejoinBacklog pins the payload lifetimes: a held
// payload's bits are the Peer's per-unit buffer, a rejoin backlog's are
// fresh. Worker 0's pull holds unit u, the worker leaves with it still out,
// mass of the opposite signs merges into u, and the rejoin's backlog carries
// u again — both payloads of one unit alive at once. Each must still decode
// to what it carried when encoded, and Settle plus the backlog's Restore must
// put back exactly those values.
func TestHeldPullSurvivesRejoinBacklog(t *testing.T) {
	s, part := testState(t, 3)
	const u = 1
	n := part.Unit(u).Len
	row := func(sign float32) []float32 {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = sign * float32(1+i%3) * float32(1-2*(i%2))
		}
		return vals
	}
	decoded := func(pl compress.Payload) []float32 {
		out := make([]float32, n)
		compress.Decode(pl, out)
		return out
	}
	s.Merge(1, u, row(1), 1)
	p := NewPeer(0, part)
	p.hold(s, []int{u})
	held := decoded(p.Held(u))

	p.Leave(s)
	s.Merge(1, u, row(-1), 2) // every sign flipped: overwritten bits would show
	_, backlog := p.Rejoin(s)
	if len(backlog) != 1 || backlog[0].Row != u {
		t.Fatalf("rejoin backlog = %+v, want unit %d alone", backlog, u)
	}
	resync := decoded(backlog[0])
	if slices.Equal(held, resync) {
		t.Fatal("the held pull and the backlog carry the same values; the test cannot tell them apart")
	}
	if got := decoded(p.Held(u)); !slices.Equal(got, held) {
		t.Fatalf("held payload decodes to %v after the backlog encode, carried %v", got, held)
	}

	p.Settle(s, nil)
	p.Restore(s, backlog...)
	if got := decoded(backlog[0]); !slices.Equal(got, resync) {
		t.Fatalf("backlog payload decodes to %v after Settle, carried %v", got, resync)
	}
	for i, v := range s.Acc[0].Unit(u) {
		if want := held[i] + resync[i]; v != want {
			t.Fatalf("unit %d[%d] = %g after Settle and Restore, want the held %g plus the backlog %g", u, i, v, held[i], resync[i])
		}
	}
}

// eventLog is a Tracer that keeps what it is handed.
type eventLog []obs.Event

func (l *eventLog) Emit(e obs.Event) { *l = append(*l, e) }

func (l eventLog) ofKind(k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range l {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// tracedState is testState with a collecting probe.
func tracedState(t *testing.T, workers int) (*State, *eventLog) {
	s, _ := testState(t, workers)
	log := new(eventLog)
	s.Probe = obs.NewProbe(log, nil, nil)
	return s, log
}

// mergeAll lands every unit from worker w at iteration iter.
func mergeAll(s *State, w int, iter int64) {
	for u := 0; u < s.part.NumUnits(); u++ {
		s.Merge(w, u, make([]float32, s.part.Unit(u).Len), iter)
	}
}

// TestGateTracesOneStall: however often the runtime asks, one wait is one
// stall — opened by the first false with what pins the minimum, closed by the
// true that ends it over exactly now_last − now_first, naming the merge that
// released it.
func TestGateTracesOneStall(t *testing.T) {
	s, log := tracedState(t, 2)
	p0 := NewPeer(0, s.part)
	mergeAll(s, 0, 4) // SSP-4: iteration 4 waits for the minimum to leave 0
	for _, now := range []float64{1.5, 2.25, 3} {
		if p0.Gate(s, 4, now) {
			t.Fatalf("gate open at t=%g with worker 1 at version 0", now)
		}
	}
	last := s.part.NumUnits() - 1
	mergeAll(s, 1, 1) // the last unit's merge moves the minimum
	if !p0.Gate(s, 4, 7.75) {
		t.Fatal("gate still closed after worker 1 caught up")
	}
	if !p0.Gate(s, 4, 9) || len(log.ofKind(obs.KindStallEnd)) != 1 {
		t.Fatal("an open gate asked again closed a second stall")
	}
	begins, ends := log.ofKind(obs.KindStallBegin), log.ofKind(obs.KindStallEnd)
	if len(begins) != 1 || len(ends) != 1 {
		t.Fatalf("%d StallBegin / %d StallEnd for one wait, want 1/1", len(begins), len(ends))
	}
	b, e := begins[0], ends[0]
	if b.Worker != 0 || b.Iter != 4 || b.Cause != "gate" || b.BlockWorker != 1 || b.BlockUnit != 0 || b.BlockVersion != 0 {
		t.Fatalf("StallBegin = %+v, want worker 0 iter 4 blocked by worker 1's unit 0 at version 0", b)
	}
	if e.Seconds != 7.75-1.5 {
		t.Fatalf("StallEnd seconds = %g, want now_last − now_first = %g", e.Seconds, 7.75-1.5)
	}
	if e.Worker != 0 || e.Iter != 4 || e.BlockWorker != 1 || e.BlockUnit != last || e.BlockVersion != 1 {
		t.Fatalf("StallEnd = %+v, want the release: worker 1's merge of unit %d at version 1", e, last)
	}
}

// TestLeaveAbandonsStall: a detach mid-stall ends the wait with no release —
// no StallEnd — and the worker's next wait opens fresh instead of closing the
// abandoned one.
func TestLeaveAbandonsStall(t *testing.T) {
	s, log := tracedState(t, 2)
	p0 := NewPeer(0, s.part)
	mergeAll(s, 0, 4)
	if p0.Gate(s, 4, 1) {
		t.Fatal("gate open with worker 1 at version 0")
	}
	p0.Leave(s)
	base, _ := p0.Rejoin(s)
	if base != 0 {
		t.Fatalf("rejoin baseline = %d, want worker 1's version 0", base)
	}
	mergeAll(s, 0, 5)
	if p0.Gate(s, 5, 10) {
		t.Fatal("gate open at iteration 5 with the minimum at 0")
	}
	if ends := log.ofKind(obs.KindStallEnd); len(ends) != 0 {
		t.Fatalf("abandoned stall was closed: %+v", ends)
	}
	begins := log.ofKind(obs.KindStallBegin)
	if len(begins) != 2 || begins[1].Iter != 5 {
		t.Fatalf("StallBegins = %+v, want a fresh one for iteration 5", begins)
	}
	if rc := log.ofKind(obs.KindReconnect); len(rc) != 1 || rc[0].Worker != 0 || rc[0].Iter != base {
		t.Fatalf("Reconnect events = %+v, want one for worker 0 at its baseline", rc)
	}
}

// TestUntracedGateDoesNotQuiesce pins the cost of a stall nobody traces: with
// no probe, a blocked Gate needs State.mu and the lock-free Min() only, so it
// answers while a merge holds a shard lock. Asking what pins the minimum
// quiesces the whole state — State.mu, every shard lock, a units × workers
// scan — and is for an enabled probe alone. (The socket server used to pass
// MinBlocker() as an argument of its nil-safe StallBegin, evaluating it
// traced or not: that shape blocks here until the shard lock is released.)
func TestUntracedGateDoesNotQuiesce(t *testing.T) {
	s, part := testState(t, 3)
	p0 := NewPeer(0, part)
	mergeAll(s, 0, 4)

	s.shards[0].mu.Lock()
	answered := make(chan bool, 1)
	go func() { answered <- p0.Gate(s, 4, 0) }()
	select {
	case ok := <-answered:
		if ok {
			t.Error("gate open with workers 1 and 2 at version 0")
		}
	case <-time.After(5 * time.Second):
		t.Error("an untraced, blocked Gate waits for a shard lock")
	}
	s.shards[0].mu.Unlock()
	if t.Failed() {
		return
	}

	// With a probe the same call names the blocker: the lowest unit, then the
	// lowest worker, still at the minimum.
	log := new(eventLog)
	s.Probe = obs.NewProbe(log, nil, nil)
	for _, w := range []int{1, 2} {
		s.Merge(w, 0, make([]float32, part.Unit(0).Len), 1) // unit 0 leaves the minimum
	}
	p0.Leave(s) // forget the untraced stall
	p0.Rejoin(s)
	if p0.Gate(s, 4, 0) {
		t.Fatal("gate open with unit 1 at version 0")
	}
	begins := log.ofKind(obs.KindStallBegin)
	if len(begins) != 1 || begins[0].BlockWorker != 1 || begins[0].BlockUnit != 1 || begins[0].BlockVersion != 0 {
		t.Fatalf("StallBegin = %+v, want blocked by worker 1's unit 1 at version 0", begins)
	}
}

// TestPullSettleConservesMass: a pull is planned, a strict subset of it is
// delivered, the rest settled — and every row is in exactly one place: a
// delivered unit's copy is empty and its payload carries the copy as it was,
// an undelivered unit's copy is what its payload carried, bit for bit. The
// Peer is the runtime's, so the same holds when a recovered state (here: one
// rebuilt from the transitions) is swapped in while the pull is out.
func TestPullSettleConservesMass(t *testing.T) {
	for _, swap := range []bool{false, true} {
		s, part := testState(t, 3)
		twin, _ := testState(t, 3)
		s.Observe(func(tr Transition) {
			if !twin.Apply(tr) {
				t.Fatalf("transition %+v does not fit the twin", tr)
			}
		})
		seedCopies(s, 1)
		// What each payload will carry: the peer's codec starts with zero
		// residual, as this reference one does.
		ref := compress.NewCodec(part.Widths())
		carried := make([][]float32, part.NumUnits())
		for u := range carried {
			carried[u] = make([]float32, part.Unit(u).Len)
			compress.Decode(ref.Encode(u, s.Acc[0].Unit(u)), carried[u])
		}

		p := NewPeer(0, part)
		plan := p.HoldPull(s, 1)
		if len(plan.Units) != part.NumUnits() {
			t.Fatalf("SSP planned %d of %d units", len(plan.Units), part.NumUnits())
		}
		delivered := plan.Units[:len(plan.Units)/2]
		got := make([]float32, part.MaxUnitLen())
		for _, u := range delivered {
			compress.Decode(p.Held(u), got[:part.Unit(u).Len])
			for i, v := range got[:part.Unit(u).Len] {
				if v != carried[u][i] {
					t.Fatalf("swap=%v: delivered unit %d[%d] carries %g, the copy held %g", swap, u, i, v, carried[u][i])
				}
			}
		}
		if swap {
			s = twin
		}
		p.Settle(s, delivered)
		for _, u := range plan.Units {
			want := carried[u]
			if u < len(delivered) {
				want = make([]float32, len(carried[u]))
			}
			for i, v := range s.Acc[0].Unit(u) {
				if v != want[i] {
					t.Fatalf("swap=%v: unit %d[%d] = %g after Settle, want %g", swap, u, i, v, want[i])
				}
			}
			if _, held := p.Take(u); held {
				t.Fatalf("swap=%v: unit %d still held after Settle", swap, u)
			}
		}
	}
}

// TestOneServerStep keeps the fork from growing back: the server's step is
// Peer's, so no non-test source of either runtime may call its pieces on the
// State (or hold and release payloads) itself. The worker half's
// Policy.ObservePush (livenet/worker.go) is not the server's and is exempt.
func TestOneServerStep(t *testing.T) {
	piece := regexp.MustCompile(`\.(ObservePush|CanAdvance|PlanPull|MinBlocker|LastRelease|AddRowsResynced|HoldBacklog|Hold|Release)\(`)
	for _, dir := range []string{"../core", "../livenet"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources under %s (%v)", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range piece.FindAllIndex(src, -1) {
				if bytes.HasSuffix(src[:m[0]], []byte("Policy")) {
					continue
				}
				line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
				t.Errorf("%s:%d calls %s itself; the server step goes through engine.Peer", f, line, src[m[0]+1:m[1]-1])
			}
		}
	}
}

// boundTwoState is a 2-worker SSP state at bound 2.
func boundTwoState(t *testing.T) *State {
	t.Helper()
	_, part := testState(t, 2)
	pol, err := New("ssp", Params{Workers: 2, Threshold: 2, NumUnits: part.NumUnits()})
	if err != nil {
		t.Fatal(err)
	}
	return NewStateSharded(pol, part, 2, 1.0, 1)
}

// TestAdmitSelfPin: a push waits on the other workers' minimum, not on the
// pusher's own rows. Worker 0 pushed unit 1 at iterations 1 and 2, left and
// rejoined at baseline 0; its unit 0 at version 0 is then what pins the
// global minimum once worker 1 pushes everything at iteration 1. Its push 3 —
// which carries that row, as every policy forces it — is refused while
// worker 1 is at 0 and admitted after, although Frontier() stays 2: judged
// against the global minimum it would wait on itself forever.
func TestAdmitSelfPin(t *testing.T) {
	s := boundTwoState(t)
	log := new(eventLog)
	s.Probe = obs.NewProbe(log, nil, nil)
	p0 := NewPeer(0, s.part)
	for _, it := range []int64{1, 2} {
		s.Merge(0, 1, make([]float32, s.part.Unit(1).Len), it)
	}
	p0.Leave(s)
	if base, _ := p0.Rejoin(s); base != 0 {
		t.Fatalf("rejoin baseline %d, want 0", base)
	}
	if p0.Admit(s, 3, 1) {
		t.Fatal("push 3 admitted with worker 1 at version 0: lead 3 over bound 2")
	}
	mergeAll(s, 1, 1)
	if f := s.Frontier(); f != 2 {
		t.Fatalf("Frontier() = %d, want 2: worker 0's unit 0 pins the minimum at 0", f)
	}
	if !p0.Admit(s, 3, 4) {
		t.Fatal("push 3 refused with the other worker at 1: its own forced row pins it")
	}
	begins, ends := log.ofKind(obs.KindStallBegin), log.ofKind(obs.KindStallEnd)
	if len(begins) != 1 || begins[0].Iter != 2 || begins[0].BlockWorker != 1 || begins[0].BlockVersion != 0 {
		t.Fatalf("StallBegin = %+v, want one at gate 2 blocked by worker 1 at version 0", begins)
	}
	if len(ends) != 1 || ends[0].Iter != 2 || ends[0].Seconds != 3 {
		t.Fatalf("StallEnd = %+v, want one closing gate 2 after 3 s", ends)
	}
}

// TestAdmitFastPathIsFree: a push inside the frontier is admitted without a
// lock, an event or an allocation — every push of a recorded run takes this
// path.
func TestAdmitFastPathIsFree(t *testing.T) {
	s := boundTwoState(t)
	p1 := NewPeer(1, s.part)
	mergeAll(s, 0, 1)
	mergeAll(s, 1, 1)
	if n := testing.AllocsPerRun(100, func() {
		if !p1.Admit(s, 2, 0) {
			t.Fatal("push 2 refused with the minimum at 1")
		}
	}); n != 0 {
		t.Fatalf("the fast path allocated %.1f times", n)
	}
	log, reg := new(eventLog), obs.NewRegistry()
	s.Probe = obs.NewProbe(log, reg, nil)
	s.shards[0].mu.Lock() // the fast path must not need it
	defer s.shards[0].mu.Unlock()
	if !p1.Admit(s, 2, 0) {
		t.Fatal("push 2 refused with the minimum at 1")
	}
	if len(*log) != 0 || reg.Counter("gate_checks").Value() != 0 {
		t.Fatalf("the fast path emitted %d events and %d gate checks", len(*log), reg.Counter("gate_checks").Value())
	}
}
