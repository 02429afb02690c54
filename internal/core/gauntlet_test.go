package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rog/internal/durable"
	"rog/internal/lossnet"
	"rog/internal/obs"
	"rog/internal/simnet"
	"rog/internal/trace"
)

func mustFaults(t *testing.T, spec string) simnet.FaultSchedule {
	t.Helper()
	fs, err := simnet.ParseFaultSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// memStore is a fresh MemFS-backed checkpoint store.
func memStore(t *testing.T) *durable.Store {
	t.Helper()
	st, err := durable.Open(durable.NewMemFS(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runCluster is Run with the cluster kept, for white-box checks on the state
// a run ends in (it skips only Run's final checkpoint of the store). A hook
// runs after launch and before the faults are scheduled, so what it schedules
// for a fault's instant fires just before the fault.
func runCluster(t *testing.T, cfg Config, wl Workload, hooks ...func(*cluster)) (*cluster, *Result) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newCluster(cfg, wl)
	if err := c.setupDurable(); err != nil {
		t.Fatal(err)
	}
	c.checkpoint()
	c.launch()
	for _, hook := range hooks {
		hook(c)
	}
	if err := c.installFaults(); err != nil {
		t.Fatal(err)
	}
	c.k.RunUntilIdle(200_000_000)
	if c.fatalErr != nil {
		t.Fatal(c.fatalErr)
	}
	c.checkpoint()
	return c, c.result()
}

// TestBlackoutSurvivesServerRestart pins the two owners of "this link is
// dark" apart: a server restart inside a robot's blackout must not end the
// blackout, and a flapping link's up-edge during the outage must not reach
// the dead server.
func TestBlackoutSurvivesServerRestart(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		worker     int     // -1: every worker
		from, to   float64 // the window in which nothing may complete
	}{
		{"blackout outlives the restart", "blackout:2@40+80,servercrash@60+10", 2, 40, 120},
		{"flap up-edge meets a dead server", "flap:2@50+60/4,servercrash@60+40", -1, 60, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(ROG, 4)
			cfg.Durable = memStore(t)
			cfg.Faults = mustFaults(t, tc.spec)
			cfg.MaxIterations, cfg.MaxVirtualSeconds = 0, 160
			var log eventLog
			cfg.Trace = &log
			res, err := Run(cfg, newTestWorkload(3, 51))
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovery.Recoveries != 1 {
				t.Fatalf("recovery counters %+v, want 1 recovery", res.Recovery)
			}
			var after int
			for _, e := range log {
				if e.Kind != obs.KindRowsSent || e.Bytes == 0 || (tc.worker >= 0 && e.Worker != tc.worker) {
					continue
				}
				if e.Time > tc.from && e.Time < tc.to {
					t.Fatalf("worker %d completed a %v of %g bytes at t=%.2f, inside (%g, %g)",
						e.Worker, e.Dir, e.Bytes, e.Time, tc.from, tc.to)
				}
				if e.Time >= tc.to {
					after++
				}
			}
			if after == 0 {
				t.Fatal("nothing was transmitted after the window: the run never came back")
			}
		})
	}
}

// TestRejoinWaitsForServerRestart crashes a robot, then the server, and
// schedules the robot's rejoin inside the outage: it must be re-admitted by
// the recovered server, not by the dead one.
func TestRejoinWaitsForServerRestart(t *testing.T) {
	run := func() (*cluster, *Result, *obs.Summary) {
		cfg := testConfig(ROG, 4)
		cfg.Durable = memStore(t)
		cfg.Faults = mustFaults(t, "crash:1@20+25,servercrash@40+10")
		cfg.MaxIterations, cfg.MaxVirtualSeconds = 0, 160
		var buf bytes.Buffer
		tr := obs.NewJSONLTracer(&buf)
		cfg.Trace = tr
		c, res := runCluster(t, cfg, newTestWorkload(3, 53))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		an, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return c, res, an.Summary()
	}
	c, res, sum := run()
	if res.Churn.Disconnects != 1 || res.Churn.Reconnects != 1 || res.Churn.RowsResynced == 0 {
		t.Errorf("churn counters %+v, want 1 disconnect, 1 reconnect and a resync", res.Churn)
	}
	for w := 0; w < c.cfg.Workers; w++ {
		if !c.state.IsActive(w) {
			t.Errorf("worker %d is detached at the end of the run", w)
		}
	}
	if len(sum.PairErrors) != 0 || sum.Detaches != 2 || sum.Reconnects != 2 {
		// Two Detach/Reconnect pairs: the robot's and the server's own (worker -1).
		t.Errorf("trace: %d detaches, %d reconnects, pairing errors %v", sum.Detaches, sum.Reconnects, sum.PairErrors)
	}
	if res.MaxStaleness > 4 {
		t.Errorf("max staleness %d > 4", res.MaxStaleness)
	}
	if _, again, _ := run(); !reflect.DeepEqual(res, again) {
		t.Errorf("same seed, different result:\n%+v\n%+v", res, again)
	}
}

// TestCrashedRobotStaysDetachedAcrossRestart is the mirror case: a robot's
// detach that the dead server never made durable — the robot crashed during
// the outage, or the record sat in the WAL's unsynced tail — must not come
// back as a ghost member pinning the survivors' gate.
func TestCrashedRobotStaysDetachedAcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		spec      string
		syncEvery int
	}{
		{"servercrash@30+15,crash:1@35", 1},
		{"crash:1@29.5,servercrash@30+10", 64},
	} {
		cfg := testConfig(ROG, 4)
		st := memStore(t)
		st.SyncEvery = tc.syncEvery
		cfg.Durable = st
		cfg.Faults = mustFaults(t, tc.spec)
		cfg.MaxIterations, cfg.MaxVirtualSeconds = 0, 160
		c, res := runCluster(t, cfg, newTestWorkload(3, 53))
		if c.state.IsActive(1) || res.Churn.Disconnects != 1 {
			t.Errorf("%s: worker 1 active=%v after its crash, churn %+v", tc.spec, c.state.IsActive(1), res.Churn)
		}
		if res.Iterations < 20 {
			t.Errorf("%s: survivors stalled at %d iterations behind a ghost", tc.spec, res.Iterations)
		}
	}
}

// TestGauntlet composes every subsystem the runtime has — strategy × loop
// depth × loss × faults × edge aggregation × sharding — at tiny scale and
// holds each cell to the invariants every run owes: it finishes, inside the
// staleness bound, deterministically, with a well-formed trace, and with
// everyone who rejoined a member again.
func TestGauntlet(t *testing.T) {
	// One set of robot links for every cell: generating them is a fifth of a
	// cell's cost, and the replay path is the same code from there on.
	links := make([]*trace.Trace, 4)
	for w := range links {
		links[w] = trace.GenerateEnv(trace.Outdoor, 300, 11*1000+uint64(w)+1)
	}
	for _, st := range []struct {
		s          Strategy
		thr, bound int
	}{{BSP, 0, 1}, {SSP, 4, 4}, {ROG, 4, 4}} {
		for _, pipeline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v-%d/pipeline=%v", st.s, st.thr, pipeline), func(t *testing.T) {
				t.Parallel()
				for _, loss := range []string{"none", "ge:0.05", "iid:0.2"} {
					for _, f := range []struct {
						spec   string
						churns int // crash/rejoin cycles, all of worker 1
					}{
						{"", 0},
						{"crash:1@20+25", 1},
						{"crash:1@20+25,blackout:2@30+25", 1},
						{"servercrash@40+10", 0},
						{"crash:1@20+25,servercrash@40+10", 1},    // the rejoin falls inside the outage
						{"blackout:2@30+25,servercrash@40+10", 0}, // the restart falls inside the blackout
					} {
						for _, aggs := range []int{0, 2} {
							for _, shards := range []int{1, 3} {
								cfg := testConfig(st.s, st.thr)
								cfg.Workers, cfg.Traces, cfg.Pipeline = 4, links, pipeline
								cfg.Aggregators, cfg.Shards = aggs, shards
								cfg.MaxIterations, cfg.MaxVirtualSeconds = 0, 90
								var err error
								if cfg.Loss, err = lossnet.ParseSpec(loss); err != nil {
									t.Fatal(err)
								}
								cfg.Faults = mustFaults(t, f.spec)
								name := fmt.Sprintf("loss=%s faults=%q aggs=%d shards=%d", loss, f.spec, aggs, shards)
								gauntletCell(t, name, cfg, int64(st.bound), f.churns)
							}
						}
					}
				}
			})
		}
	}
}

// gauntletCell runs one composition twice — traced with the cluster kept,
// then plain — and checks the invariants.
func gauntletCell(t *testing.T, name string, cfg Config, bound int64, churns int) {
	withStore := func(cfg Config) Config {
		if slices.ContainsFunc(cfg.Faults, func(e simnet.FaultEvent) bool { return e.Kind == simnet.FaultServerCrash }) {
			st := memStore(t)
			st.SyncEvery = 16 // the crash loses a WAL tail
			cfg.Durable, cfg.RecoverySecondsPerMB = st, 0.5
		}
		return cfg
	}
	traced := withStore(cfg)
	var buf bytes.Buffer
	tr, cp := obs.NewJSONLTracer(&buf), obs.NewCritPath()
	traced.Trace = obs.Tee(tr, cp)
	c, res := runCluster(t, traced, newTestWorkload(4, 61))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 3 {
		t.Errorf("%s: only %d iterations", name, res.Iterations)
	}
	if res.MaxStaleness > bound {
		t.Errorf("%s: max staleness %d > %d", name, res.MaxStaleness, bound)
	}
	if res.Churn.Disconnects != churns || res.Churn.Reconnects != churns {
		t.Errorf("%s: churn %+v, want %d crash and rejoin", name, res.Churn, churns)
	}
	if churns > 0 && !c.state.IsActive(1) {
		t.Errorf("%s: worker 1 rejoined but ends detached", name)
	}
	// The analyser fed live and one fed the cell's JSONL must agree on
	// both views: the file reader is lossless.
	fromFile, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum, rep := cp.Summary(), cp.Report()
	if !reflect.DeepEqual(sum, fromFile.Summary()) || !reflect.DeepEqual(rep, fromFile.Report()) {
		t.Errorf("%s: the analyser read from JSONL disagrees with the live one", name)
	}
	if len(sum.PairErrors) != 0 {
		t.Errorf("%s: trace pairing %v", name, sum.PairErrors)
	}
	again, err := Run(withStore(cfg), newTestWorkload(4, 61))
	if err != nil {
		t.Fatalf("%s: second run: %v", name, err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("%s: same seed, different result:\n%+v\n%+v", name, res, again)
	}
}

// TestAggregatedServerCrashDeterminism is TestServerCrashDeterminism through
// the edge tier: rows parked in an aggregator when the server dies are not
// lost — the restart must neither count them lost (re-stamping them with zero
// mass) nor, having done so, drop the real rows as duplicates when they land.
func TestAggregatedServerCrashDeterminism(t *testing.T) {
	build := func() Config {
		cfg := testConfig(ROG, 4)
		cfg.Workers, cfg.Aggregators = 4, 2
		return cfg
	}
	base, err := Run(build(), newTestWorkload(4, 33))
	if err != nil {
		t.Fatal(err)
	}
	var parked int
	for _, at := range []string{"servercrash@25", "servercrash@31.5", "servercrash@40+0"} {
		cfg := build()
		cfg.Durable = memStore(t) // SyncEvery 1, zero downtime, zero RecoverySecondsPerMB
		cfg.Faults = mustFaults(t, at)
		_, crashed := runCluster(t, cfg, newTestWorkload(4, 33), func(c *cluster) {
			c.k.At(cfg.Faults[0].At, func() {
				for _, a := range c.agg.aggs {
					parked += len(a.queue) + len(a.flying)
				}
			})
		})
		if crashed.Recovery.Recoveries != 1 || crashed.Recovery.RowsLost != 0 || crashed.Churn.DuplicatesDropped != 0 {
			t.Errorf("%s: recovery %+v, %d duplicates dropped; want 1 recovery, nothing lost, nothing dropped",
				at, crashed.Recovery, crashed.Churn.DuplicatesDropped)
		}
		// Not part of the comparison: the recovery's own counters, and the
		// closing series point, whose time is the checkpoint tick's last firing.
		crashed.Recovery = base.Recovery
		last := len(base.Series.Points) - 1
		crashed.Series.Points[last].Time = base.Series.Points[last].Time
		if !reflect.DeepEqual(base, crashed) {
			t.Errorf("%s: crash+recover diverged from the uninterrupted aggregated run:\n%+v\n%+v", at, base, crashed)
		}
	}
	if parked == 0 {
		t.Fatal("no crash instant found the tier holding rows: the held-stamps rule went untested")
	}
}

// TestOneSendPath keeps the fork from growing back: sendplan.go is the only
// non-test source in this package that may turn bytes into a flow.
func TestOneSendPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "sendplan.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("StartFlow(")) {
			t.Errorf("%s starts a flow of its own; every transmission goes through sendPlan", f)
		}
	}
}
