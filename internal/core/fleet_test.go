package core

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"rog/internal/engine"
	"rog/internal/lossnet"
	"rog/internal/obs"
	"rog/internal/trace"
)

// mergeTracer hands f the (worker, unit, stamped version) of every
// KindMerge event a run traces: its merge sequence, in order.
func mergeTracer(f func(worker, unit int, iter int64)) obs.Tracer {
	return tracerFunc(func(e obs.Event) {
		if e.Kind == obs.KindMerge {
			f(e.Worker, e.Unit, e.Version)
		}
	})
}

// mergeLogRun executes one experiment with a merge tracer and returns the
// ordered merge log plus the trained workload (for parameter comparison).
func mergeLogRun(t *testing.T, cfg Config, seed uint64) ([]string, *testWorkload) {
	t.Helper()
	var log []string
	cfg.Trace = mergeTracer(func(w, u int, it int64) {
		log = append(log, fmt.Sprintf("w%d u%d i%d", w, u, it))
	})
	wl := newTestWorkload(cfg.Workers, seed)
	if _, err := Run(cfg, wl); err != nil {
		t.Fatal(err)
	}
	return log, wl
}

// TestShardedRunBitIdentical is the tentpole's parity guarantee at the
// simnet layer: the kernel is single-threaded, so splitting the server
// state into K independently-locked shards must change nothing — not the
// merge sequence, not the trained parameters.
func TestShardedRunBitIdentical(t *testing.T) {
	base := testConfig(ROG, 6)
	base.MaxIterations = 12
	for _, shards := range []int{2, 4, 7} {
		cfg := base
		cfg.Shards = shards
		ref, refWL := mergeLogRun(t, base, 21)
		got, gotWL := mergeLogRun(t, cfg, 21)
		if len(ref) != len(got) {
			t.Fatalf("shards=%d: %d merges, want %d", shards, len(got), len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("shards=%d: merge %d = %q, want %q", shards, i, got[i], ref[i])
			}
		}
		p0 := refWL.models[0].Params()
		pK := gotWL.models[0].Params()
		for i := range p0 {
			if !p0[i].Equal(pK[i]) {
				t.Fatalf("shards=%d: param %d diverged from shards=1", shards, i)
			}
		}
	}
}

// TestAggregatedRunBoundsStaleness drives a fleet through the edge tier
// and checks the staleness invariant end to end, for every loop shape that
// reaches the tier: rows coalesced in an aggregator queue must never merge
// with a lead beyond the policy's bound (the threshold; 1 for BSP, whose
// gate is a full barrier), and the run must still make progress.
func TestAggregatedRunBoundsStaleness(t *testing.T) {
	pipelined := testConfig(ROG, 4)
	pipelined.Pipeline = true
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound int64
	}{
		{"SSP-4", testConfig(SSP, 4), 4},
		{"BSP", testConfig(BSP, 0), 1},
		{"pipelined ROG-4", pipelined, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 8
			cfg.Aggregators = 2
			cfg.Shards = 4
			cfg.MaxIterations = 15
			wl := newTestWorkload(cfg.Workers, 6)
			res, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 5 {
				t.Fatalf("aggregated run barely progressed: %d iterations", res.Iterations)
			}
			if res.MaxStaleness > tc.bound {
				t.Fatalf("staleness bound violated through the edge tier: max lead %d > %d",
					res.MaxStaleness, tc.bound)
			}
			// White-box: the version lattice obeys the bound at every kernel step.
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			wl2 := newTestWorkload(cfg.Workers, 6)
			c := newCluster(cfg, wl2)
			c.launch()
			for c.k.Step() {
				if ahead := c.state.Versions.MaxAhead(); ahead > tc.bound {
					t.Fatalf("staleness bound violated mid-run: %d > %d", ahead, tc.bound)
				}
			}
		})
	}
}

// TestAggregatedMatchesDirectVersions checks the tier's stamp forwarding:
// after an aggregated run every worker's per-unit version equals its last
// pushed iteration (nothing lost or reordered in the coalescing queue).
func TestAggregatedMatchesDirectVersions(t *testing.T) {
	cfg := testConfig(ROG, 6)
	cfg.Workers = 6
	cfg.Aggregators = 3
	cfg.MaxIterations = 10
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := newTestWorkload(cfg.Workers, 9)
	c := newCluster(cfg, wl)
	c.launch()
	c.k.RunUntilIdle(10_000_000)
	for w := 0; w < cfg.Workers; w++ {
		for u := 0; u < c.part.NumUnits(); u++ {
			if got, want := c.state.Versions.Get(w, u), c.rep[w].PushIter[u]; got != want {
				t.Fatalf("worker %d unit %d: version %d, want pushed iteration %d", w, u, got, want)
			}
		}
	}
}

// TestValidateShardAggregatorRules pins the configuration surface.
func TestValidateShardAggregatorRules(t *testing.T) {
	ok := testConfig(SSP, 4)
	ok.Shards = 0
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.Shards != 1 {
		t.Fatalf("Shards default = %d, want 1", ok.Shards)
	}

	bad := testConfig(SSP, 4)
	bad.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}

	bad = testConfig(SSP, 4)
	bad.Aggregators = 3 // == Workers
	if err := bad.Validate(); err == nil {
		t.Fatal("Aggregators == Workers accepted")
	}

	// Every strategy reaches the tier through the one synchronize loop.
	ok = testConfig(BSP, 0)
	ok.Aggregators = 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("BSP with Aggregators rejected: %v", err)
	}

	ok = testConfig(ROG, 6)
	ok.Pipeline = true
	ok.Aggregators = 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("Pipeline with Aggregators rejected: %v", err)
	}

	// The tier composes with every other subsystem: its uplink rides the one
	// send path, so loss, faults and a durable server need no exclusion.
	ok, _, _ = durableConfig(t, SSP, 4)
	ok.Aggregators = 1
	ok.Loss = lossnet.Spec{Kind: "iid", Rate: 0.05}
	ok.Faults = mustFaults(t, "crash:1@20+25,servercrash@40+10")
	if err := ok.Validate(); err != nil {
		t.Fatalf("Aggregators with Loss, Faults and Durable rejected: %v", err)
	}
}

// TestAggregatorCycleAllocations guards the edge tier's steady state: a row
// enqueued at an idle aggregator, flushed up the backhaul and merged at the
// root costs what send costs any plan — the flow record, the completion
// closure sendPlan hands it, and the two variables that closure shares with
// the (unused, no-deadline) budget timer: 4 allocations — and nothing of the
// tier's own. The queue slot, the combined row with its vals and stamps, the
// plan's units and prefix sums and both flush callbacks are the aggregator's
// and reused.
func TestAggregatorCycleAllocations(t *testing.T) {
	cfg := testConfig(ROG, 8)
	cfg.Workers, cfg.Aggregators, cfg.Shards = 4, 1, 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newCluster(cfg, newTestWorkload(cfg.Workers, 3))
	vals := make([]float32, c.part.Unit(0).Len)
	iter := int64(0)
	cycle := func() {
		iter++
		c.agg.enqueue(0, vals, engine.Stamp{Worker: 1, Iter: iter})
		c.k.RunUntilIdle(1000)
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n > 4 {
		t.Fatalf("enqueue → flush → merge: %v allocs, want ≤ 4 (send's own)", n)
	}
	if got := c.state.Versions.Get(1, 0); got != iter {
		t.Fatalf("cycles merged up to iteration %d, want %d", got, iter)
	}
}

// TestDeliverPushDoesNotAllocate guards the simulator's per-row push path
// without aggregators: encoding a robot's unit into its Replica's bits,
// decoding it into the cluster's scratch and merging it into the State
// allocates nothing, for every unit of a push.
func TestDeliverPushDoesNotAllocate(t *testing.T) {
	cfg := testConfig(ROG, 8)
	c := newCluster(cfg, newTestWorkload(cfg.Workers, 3))
	iter := int64(0)
	push := func() {
		iter++
		for u := 0; u < c.part.NumUnits(); u++ {
			c.rep[1].Local.Unit(u)[0] = float32(iter % 3)
			c.deliverPush(1, u, iter)
		}
	}
	push()
	if n := testing.AllocsPerRun(50, push); n != 0 {
		t.Fatalf("delivering a %d-row push allocates %v times, want 0", c.part.NumUnits(), n)
	}
	if got := c.state.Versions.Get(1, 0); got != iter {
		t.Fatalf("pushes merged up to iteration %d, want %d", got, iter)
	}
}

// TestFleetCellRepeatsExactly runs the fleet sweep's w64-s8-a0 cell (ROG-8,
// 64 robots, 8 shards, no aggregators — the size at which the sync plane's
// hash tables were found) repeatedly in one process and requires the same
// Result and the same number of heap allocations: with no map on the per-row or
// per-event path, nothing in a run depends on iteration order or hash seeds,
// so the work repeats to the malloc.
func TestFleetCellRepeatsExactly(t *testing.T) {
	// The count is the program's only with the runtime's own helpers quiet:
	// one P, and no collection (a cycle's workers allocate a little) while
	// the few megabytes of a cell are counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cell := func() (*Result, uint64) {
		cfg := Config{
			Strategy: ROG, Workers: 64, Threshold: 8, Shards: 8,
			Env: trace.Outdoor, Seed: 33,
			ComputeSeconds: 1, PaperModelBytes: 5e4, LR: 0.02, Momentum: 0.9,
			MaxVirtualSeconds: 20, CheckpointEvery: 50,
		}
		wl := newTestWorkload(cfg.Workers, 5)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg, wl)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return res, m1.Mallocs - m0.Mallocs
	}
	// The runtime's own allocations land in the count now and then (one or
	// two objects, about one run in three hundred), only ever on top of the
	// program's: so the program's count is the smallest seen, and it is exact
	// if a second run reaches it.
	ref, _ := cell() // also warms lazily initialized runtime and package state
	var counts []uint64
	exact := false
	for run := 0; run < 6 && !exact; run++ {
		res, mallocs := cell()
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("the same cell produced two results:\n%+v\n%+v", ref, res)
		}
		counts = append(counts, mallocs)
		lowest, n := slices.Min(counts), 0
		for _, c := range counts {
			if c == lowest {
				n++
			}
		}
		exact = n >= 2 || raceEnabled
	}
	if ref.Iterations < 3 || ref.MaxStaleness > 8 {
		t.Fatalf("cell did not run as a fleet cell should: %d iterations, staleness %d", ref.Iterations, ref.MaxStaleness)
	}
	if !exact {
		t.Fatalf("the same cell never allocated the same number of objects twice: %v", counts)
	}
}
