package harness

import "testing"

// TestFleetCellLargeBoundsStaleness runs the acceptance cell — 256 robots,
// 8 shards, 4 edge aggregators — at a reduced budget and checks the RSP
// bound held for every merge (runFleetCell errors on a violation).
func TestFleetCellLargeBoundsStaleness(t *testing.T) {
	res, err := runFleetCell(fleetCell{workers: 256, shards: 8, aggregators: 4}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("fleet cell barely progressed: %d iterations", res.Iterations)
	}
	if res.MaxStaleness > fleetThreshold {
		t.Fatalf("max staleness %d > threshold %d", res.MaxStaleness, fleetThreshold)
	}
}

// TestFleetJSONReport checks the fleet sweep's structured view at tiny
// scale: one SystemReport per sweep cell, fleet-style labels.
func TestFleetJSONReport(t *testing.T) {
	rep := runTiny(t, "fleet")
	if len(rep.Systems) != len(fleetCells()) {
		t.Fatalf("%d system reports, want %d", len(rep.Systems), len(fleetCells()))
	}
	if rep.Systems[len(rep.Systems)-1].Label != "w256-s8-a4" {
		t.Fatalf("last label = %q, want w256-s8-a4", rep.Systems[len(rep.Systems)-1].Label)
	}
	for _, sys := range rep.Systems {
		if sys.MaxStaleness > fleetThreshold {
			t.Fatalf("%s: max staleness %d > threshold %d", sys.Label, sys.MaxStaleness, fleetThreshold)
		}
	}
}
