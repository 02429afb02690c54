package harness

import (
	"slices"
	"strings"
	"testing"

	"rog/internal/metrics"
	"rog/internal/obs"
)

// driftFixture is a small two-system report exercising every block the
// walk descends into: series, a critpath decomposition and a serve cell.
func driftFixture() *Report {
	sys := func(label string) SystemReport {
		return SystemReport{
			Label: label, Strategy: "ROG", Threshold: 4, Iterations: 10, FinalValue: 0.5,
			Series: []metrics.Point{{Iter: 5, Time: 1, Value: 0.4}, {Iter: 10, Time: 2, Value: 0.5}},
			CritPath: &obs.CritReport{Workers: []obs.WorkerPath{
				{Worker: 0, StallSeconds: 1}, {Worker: 1, StallSeconds: 2}}},
			Serve: &ServeCellReport{Clients: 4, P95Seconds: 0.25},
		}
	}
	return &Report{Experiment: "fixture", Scale: "tiny", Systems: []SystemReport{sys("A"), sys("B")}}
}

// TestDriftExact pins the generic comparison: no lines against itself, and
// exactly the perturbed path — whatever block it sits in — otherwise.
func TestDriftExact(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(cur *Report)
		want    []string
	}{
		{"self", func(*Report) {}, nil},
		{"serve p95", func(r *Report) { r.Systems[1].Serve.P95Seconds = 0.3 },
			[]string{"systems[B].serve.p95_seconds: 0.25 → 0.3"}},
		{"critpath worker stall", func(r *Report) { r.Systems[0].CritPath.Workers[1].StallSeconds = 2.5 },
			[]string{"systems[A].critpath.workers[1].stall_seconds: 2 → 2.5"}},
		{"series point", func(r *Report) { r.Systems[0].Series[1].Value = 0.75 },
			[]string{"systems[A].series[1].value: 0.5 → 0.75"}},
		{"header", func(r *Report) { r.Faults = "crash:1@5+5" },
			[]string{`faults: added → "crash:1@5+5"`}},
		// A leaf an older snapshot predates (omitted when zero) is reported
		// as added, not skipped.
		{"additive leaf", func(r *Report) { r.Systems[0].MaxStaleness = 3 },
			[]string{"systems[A].max_staleness: added → 3"}},
	}
	for _, c := range cases {
		cur := driftFixture()
		c.perturb(cur)
		lines, err := DriftTable(driftFixture(), cur)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lines, c.want) {
			t.Errorf("%s: drift = %q, want %q", c.name, lines, c.want)
		}
	}

	// Dropping or adding a system moves every leaf of that system — matched
	// by label, so the surviving system stays quiet — and nothing else.
	one := driftFixture()
	one.Systems = one.Systems[1:]
	for _, c := range []struct {
		name      string
		base, cur *Report
		suffix    string
	}{
		{"dropped system", driftFixture(), one, " → dropped"},
		{"added system", one, driftFixture(), ": added → "},
	} {
		lines, err := DriftTable(c.base, c.cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) == 0 {
			t.Fatalf("%s: no drift reported", c.name)
		}
		for _, l := range lines {
			if !strings.HasPrefix(l, "systems[A].") || !strings.Contains(l, c.suffix) {
				t.Errorf("%s: unexpected line %q", c.name, l)
			}
		}
	}
}
