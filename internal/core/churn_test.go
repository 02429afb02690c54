package core

import (
	"fmt"
	"testing"

	"rog/internal/energy"
	"rog/internal/obs"
	"rog/internal/simnet"
)

// churnConfig is testConfig with a crash/rejoin cycle and a time cap: one
// worker crashes a few iterations in and rejoins half a virtual minute
// later.
func churnConfig(s Strategy, threshold int, spec string) Config {
	cfg := testConfig(s, threshold)
	faults, err := simnet.ParseFaultSchedule(spec)
	if err != nil {
		panic(err)
	}
	cfg.Faults = faults
	cfg.MaxIterations = 25
	cfg.MaxVirtualSeconds = 1200
	return cfg
}

// TestChurnSurvivorsKeepTraining crashes one worker mid-run for every
// strategy: the run must terminate, the survivors must keep iterating well
// past the crash, and the churn counters must record both the detach and
// the rejoin.
func TestChurnSurvivorsKeepTraining(t *testing.T) {
	for _, s := range []Strategy{BSP, SSP, FLOWN, ROG} {
		res, err := Run(churnConfig(s, 4, "crash:1@30+60"), newTestWorkload(3, 21))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Iterations < 15 {
			t.Errorf("%v: worker 0 completed only %d iterations under churn", s, res.Iterations)
		}
		if res.Churn.Disconnects != 1 || res.Churn.Reconnects != 1 {
			t.Errorf("%v: churn counters %+v, want 1 disconnect / 1 reconnect", s, res.Churn)
		}
		if res.Churn.RowsResynced == 0 {
			t.Errorf("%v: rejoin resynced no rows", s)
		}
	}
}

// TestChurnPermanentCrash removes a worker for good: the survivors must not
// deadlock on the ghost's frozen rows, for the barrier strategy and the
// staleness-bounded ones alike.
func TestChurnPermanentCrash(t *testing.T) {
	for _, s := range []Strategy{BSP, SSP, ROG} {
		res, err := Run(churnConfig(s, 4, "crash:2@30"), newTestWorkload(3, 23))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Iterations < 15 {
			t.Errorf("%v: survivors stalled at %d iterations after a permanent crash", s, res.Iterations)
		}
		if res.Churn.Disconnects != 1 || res.Churn.Reconnects != 0 {
			t.Errorf("%v: churn counters %+v, want 1 disconnect / 0 reconnects", s, res.Churn)
		}
	}
}

// TestChurnRSPBoundHolds replays the RSP staleness invariant under churn: no
// merge may stamp a row more than the threshold ahead of the active minimum
// (MaxStaleness, the largest lead any merge stamped). The short downtimes
// rejoin a worker whose gate never admitted its last push: its first push
// after the rejoin must wait for the bound (engine.Peer.Admit), not merge
// past it. (The store also panics on monotonicity violations, so a rejoin
// that rewound versions would abort the test.)
func TestChurnRSPBoundHolds(t *testing.T) {
	for _, c := range []struct {
		strategy  Strategy
		threshold int
		spec      string
		crashes   int
		seed      uint64
	}{
		{ROG, 4, "crash:1@25+40,crash:2@90+30", 2, 25},
		{ROG, 4, "crash:0@17+1", 1, 21},
		{ROG, 2, "crash:0@17+0.01", 1, 21},
		{SSP, 2, "crash:0@17+0.01", 1, 21},
	} {
		t.Run(fmt.Sprintf("%v-%d %s", c.strategy, c.threshold, c.spec), func(t *testing.T) {
			res, err := Run(churnConfig(c.strategy, c.threshold, c.spec), newTestWorkload(3, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 10 {
				t.Fatalf("run barely progressed: %d iterations", res.Iterations)
			}
			if res.Churn.Disconnects != c.crashes || res.Churn.Reconnects != c.crashes {
				t.Fatalf("churn counters %+v, want %d crashes", res.Churn, c.crashes)
			}
			if res.MaxStaleness > int64(c.threshold) {
				t.Fatalf("a merge stamped a lead of %d over the threshold %d", res.MaxStaleness, c.threshold)
			}
		})
	}
}

// TestChurnBlackoutRunsThrough injects a link blackout (no membership
// change): the worker stays attached, RSP absorbs the outage, and the run
// completes. A flapping link must behave the same.
func TestChurnBlackoutRunsThrough(t *testing.T) {
	for _, spec := range []string{"blackout:0@20+15", "flap:0@20+30/5"} {
		res, err := Run(churnConfig(ROG, 4, spec), newTestWorkload(3, 27))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Iterations < 15 {
			t.Errorf("%s: completed only %d iterations", spec, res.Iterations)
		}
		if res.Churn.Disconnects != 0 {
			t.Errorf("%s: link fault was miscounted as a membership change: %+v", spec, res.Churn)
		}
	}
}

// TestChurnDeterminism reruns an identical fault schedule: virtual-time
// fault injection must replay bit-for-bit.
func TestChurnDeterminism(t *testing.T) {
	for _, s := range []Strategy{SSP, ROG} {
		a, err := Run(churnConfig(s, 4, "crash:1@30+60,blackout:0@50+20"), newTestWorkload(3, 29))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(churnConfig(s, 4, "crash:1@30+60,blackout:0@50+20"), newTestWorkload(3, 29))
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalJoules != b.TotalJoules || a.Iterations != b.Iterations || a.FinalValue != b.FinalValue {
			t.Fatalf("%v churn run not deterministic: %v/%d/%v vs %v/%d/%v", s,
				a.TotalJoules, a.Iterations, a.FinalValue, b.TotalJoules, b.Iterations, b.FinalValue)
		}
		if a.Churn != b.Churn {
			t.Fatalf("%v churn counters not deterministic: %+v vs %+v", s, a.Churn, b.Churn)
		}
	}
}

// TestBSPRejoinFinishesOnlyParticipants crashes a BSP worker and rejoins it
// in the middle of a round it never started. The barrier used to hand it
// finishIteration anyway — an IterEnd with no IterStart, an iteration and
// its compute energy counted for a round the robot sat out. Every IterEnd
// the run emits must close an open IterStart (the critical-path analyzer's
// structural check), the rejoined worker must have finished strictly fewer
// iterations than the survivors, and its counter must still land on the
// team's round so later rounds pair up.
func TestBSPRejoinFinishesOnlyParticipants(t *testing.T) {
	cfg := churnConfig(BSP, 0, "crash:1@20+10")
	cp := obs.NewCritPath()
	cfg.Trace = cp
	c := newCluster(cfg, newTestWorkload(3, 21))
	c.checkpoint()
	c.launch()
	if err := c.installFaults(); err != nil {
		t.Fatal(err)
	}
	c.k.RunUntilIdle(10_000_000)

	rep := cp.Report()
	if len(rep.Errors) != 0 {
		t.Fatalf("trace structurally broken: %v", rep.Errors)
	}
	if c.iter[1] != c.iter[0] || c.iter[0] != int64(cfg.MaxIterations) {
		t.Fatalf("round counters diverged: %v", c.iter)
	}
	finished := make(map[int]int64)
	for _, w := range rep.Workers {
		finished[w.Worker] = w.Iters
	}
	if finished[0] != c.iter[0] || finished[2] != c.iter[2] {
		t.Fatalf("survivors finished %v iterations, counters %v", finished, c.iter)
	}
	if finished[1] >= finished[0] {
		t.Fatalf("worker 1 was down for 10 s yet finished %d of %d rounds", finished[1], finished[0])
	}
}

// eventLog is a Tracer that keeps every event.
type eventLog []obs.Event

func (l *eventLog) Emit(e obs.Event) { *l = append(*l, e) }

// TestRejoinStartsFreshSpan crashes a worker for 60 s at both loop depths.
// The first iteration it finishes after the rejoin starts at its own compute,
// so the downtime is in no span: neither that iteration's stall nor the
// worker's metered stall seconds (the stall share of TotalJoules) carry it.
// The pipelined loop used to keep the pre-crash span start and charged the
// whole downtime — 61.62 s — as stall time and stall energy.
func TestRejoinStartsFreshSpan(t *testing.T) {
	const down = 60
	for _, pipeline := range []bool{false, true} {
		cfg := churnConfig(ROG, 4, "crash:1@30+60")
		cfg.Pipeline = pipeline
		var log eventLog
		cfg.Trace = &log
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		c := newCluster(cfg, newTestWorkload(3, 21))
		c.checkpoint()
		c.launch()
		if err := c.installFaults(); err != nil {
			t.Fatal(err)
		}
		c.k.RunUntilIdle(10_000_000)

		rejoined, checked := false, false
		for _, e := range log {
			switch {
			case e.Kind == obs.KindReconnect && e.Worker == 1:
				rejoined = true
			case e.Kind == obs.KindIterEnd && e.Worker == 1 && rejoined && !checked:
				checked = true
				if e.Stall >= down {
					t.Errorf("pipeline=%v: first iteration after the rejoin reports %.2f s of stall — the downtime", pipeline, e.Stall)
				}
			}
		}
		if !checked {
			t.Fatalf("pipeline=%v: worker 1 finished no iteration after its rejoin", pipeline)
		}
		if stall := c.meters[1].Seconds(energy.Stall); stall >= down {
			t.Errorf("pipeline=%v: worker 1 metered %.2f s of stall energy, the %d s it was down included", pipeline, stall, down)
		}
	}
}
