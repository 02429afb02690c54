package core

import (
	"fmt"
	"testing"

	"rog/internal/lossnet"
)

// mergeLogRun executes one experiment with an OnMerge recorder and returns
// the ordered merge log plus the trained workload (for parameter
// comparison).
func mergeLogRun(t *testing.T, cfg Config, seed uint64) ([]string, *testWorkload) {
	t.Helper()
	var log []string
	cfg.OnMerge = func(w, u int, it int64) {
		log = append(log, fmt.Sprintf("w%d u%d i%d", w, u, it))
	}
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
				if ahead := c.state.MaxAhead(); ahead > tc.bound {
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
