package core

import (
	"fmt"
	"testing"
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
// and checks the RSP invariant end to end: rows coalesced in an aggregator
// queue must never merge with a lead beyond the staleness threshold, and
// the run must still make progress.
func TestAggregatedRunBoundsStaleness(t *testing.T) {
	cfg := testConfig(SSP, 4)
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
	if res.MaxStaleness > int64(cfg.Threshold) {
		t.Fatalf("RSP bound violated through the edge tier: max lead %d > threshold %d",
			res.MaxStaleness, cfg.Threshold)
	}
	// White-box: the version lattice obeys the bound at every kernel step.
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl2 := newTestWorkload(cfg.Workers, 6)
	c := newCluster(cfg, wl2)
	c.start()
	for c.k.Step() {
		if ahead := c.state.MaxAhead(); ahead > int64(cfg.Threshold) {
			t.Fatalf("staleness bound violated mid-run: %d > %d", ahead, cfg.Threshold)
		}
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
	c.start()
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

	bad = testConfig(BSP, 0)
	bad.Aggregators = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("BSP with Aggregators accepted")
	}

	bad = testConfig(ROG, 6)
	bad.Pipeline = true
	bad.Aggregators = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("Pipeline with Aggregators accepted")
	}

	bad = testConfig(SSP, 4)
	bad.Aggregators = 1
	bad.Loss.Kind = "iid"
	bad.Loss.Rate = 0.05
	if err := bad.Validate(); err == nil {
		t.Fatal("Loss with Aggregators accepted")
	}
}
