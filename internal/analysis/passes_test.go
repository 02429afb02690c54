package analysis

import (
	"strings"
	"testing"
)

func TestLockguardFixture(t *testing.T) {
	runFixture(t, "lockguard", NewLockguard())
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "wallclock", NewWallclock())
}

func TestMaporderFixture(t *testing.T) {
	runFixture(t, "maporder", NewMaporder())
}

func TestWireframeFixture(t *testing.T) {
	runFixture(t, "wireframe", NewWireframe())
}

func TestErrdropFixture(t *testing.T) {
	runFixture(t, "errdrop", NewErrdrop())
}

func TestLockorderFixture(t *testing.T) {
	runFixture(t, "lockorder", NewLockorder())
}

// TestSuppressions drives the suppress fixture through the full driver:
// the honored ignore silences its finding, the unused ignore and the
// reason-less ignore are findings themselves, and the unsuppressed
// maporder finding survives.
func TestSuppressions(t *testing.T) {
	pkgs, err := Load("testdata/src/suppress", "")
	if err != nil {
		t.Fatal(err)
	}
	sums := diagSummaries(Analyze(pkgs, []Pass{NewMaporder()}))
	if len(sums) != 3 {
		t.Fatalf("want 3 findings, got %d: %v", len(sums), sums)
	}
	for _, substr := range []string{
		"matched no diagnostic",          // the Unused ignore
		"needs a pass name and a reason", // the NoReason ignore
		"nondeterministic",               // NoReason's unsuppressed finding
	} {
		if !containsSummary(sums, substr) {
			t.Errorf("missing finding containing %q in %v", substr, sums)
		}
	}
	// Exactly one maporder finding: Quiet's was suppressed, NoReason's
	// survived (its ignore is malformed and therefore not honored).
	n := 0
	for _, s := range sums {
		if strings.Contains(s, "nondeterministic") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 surviving maporder finding, got %d: %v", n, sums)
	}
}

// TestSuppressionScopedToRanPasses checks that an ignore for a pass that
// did not run is not reported as unused (per-pass invocations would
// otherwise always fail).
func TestSuppressionScopedToRanPasses(t *testing.T) {
	pkgs, err := Load("testdata/src/suppress", "")
	if err != nil {
		t.Fatal(err)
	}
	sums := diagSummaries(Analyze(pkgs, []Pass{NewWallclock()}))
	if containsSummary(sums, "matched no diagnostic") {
		t.Errorf("unused-suppression reported for a pass that did not run: %v", sums)
	}
}
