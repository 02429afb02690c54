package harness

import (
	"strings"
	"testing"
)

// TestRunJSONReportChurn checks the churn experiment's structured view at
// tiny scale: the report must round-trip through encoding/json with
// populated systems, series and churn counters.
func TestRunJSONReportChurn(t *testing.T) {
	rep := runTiny(t, "churn")
	if rep.Experiment != "churn" || rep.Scale != "tiny" || rep.Faults == "" {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	if len(rep.Systems) != len(SensitivitySystems()) {
		t.Fatalf("systems = %d, want %d", len(rep.Systems), len(SensitivitySystems()))
	}
	for _, s := range rep.Systems {
		if s.Label == "" || s.Iterations == 0 || len(s.Series) == 0 {
			t.Fatalf("system entry incomplete: %+v", s)
		}
		if s.Churn == nil {
			t.Fatalf("churn run exported no churn counters for %s", s.Label)
		}
		if s.ComputeSeconds <= 0 {
			t.Fatalf("%s compute = %g", s.Label, s.ComputeSeconds)
		}
	}
	// The faulted worker crashed and rejoined in at least one system.
	var reconnects int
	for _, s := range rep.Systems {
		reconnects += s.Churn.Reconnects
	}
	if reconnects == 0 {
		t.Fatal("no system recorded the scripted rejoin")
	}

	back := roundTrip(t, rep)
	if back.Target != rep.Target || len(back.Systems) != len(rep.Systems) {
		t.Fatalf("round-trip changed the report: %+v", back)
	}
}

// TestRunJSONReportLoss checks ext-loss's structured view at tiny scale on
// its 5 % cells: each names its loss channel and reliability mode and carries
// loss counters — BSP's whole-model plans fold nothing, selective ROG folds
// best-effort rows back, and something was retransmitted.
func TestRunJSONReportLoss(t *testing.T) {
	rep := runTiny(t, "ext-loss")
	back := roundTrip(t, rep)
	var cells, retransmitted int
	for i, s := range rep.Systems {
		if s.Loss == nil {
			t.Fatalf("loss run exported no loss counters for %s", s.Label)
		}
		if b := back.Systems[i]; b.Label != s.Label || b.Loss == nil || *b.Loss != *s.Loss {
			t.Fatalf("round-trip changed cell %s: %+v", s.Label, b)
		}
		if !strings.Contains(s.Label, " ge:0.05 ") {
			continue
		}
		cells++
		retransmitted += s.Loss.RowsRetransmitted
		switch s.Label {
		case "BSP ge:0.05 selective":
			if s.Loss.RowsLostFolded != 0 {
				t.Errorf("BSP folded %d rows — whole-model plans are fully reliable", s.Loss.RowsLostFolded)
			}
		case "ROG-4 ge:0.05 selective":
			if s.Loss.RowsLostFolded == 0 {
				t.Errorf("%s folded no best-effort rows at 5%% loss", s.Label)
			}
		case "ROG-4 ge:0.05 all":
		default:
			t.Errorf("unexpected 5%% cell %q", s.Label)
		}
	}
	if cells != 3 || len(rep.Systems) != 6 {
		t.Fatalf("%d cells at 5%% of %d, want 3 of 6", cells, len(rep.Systems))
	}
	if retransmitted == 0 {
		t.Fatal("no system retransmitted anything at 5% loss")
	}
}

// TestRunJSONReportExtRecovery runs the checkpoint-policy sweep at tiny
// scale: the baseline entry carries no recovery block, every sweep cell
// carries exactly one recovery with its policy knobs, and a sweep cell with
// lazy WAL syncing must not replay more than its eager sibling at the same
// interval.
func TestRunJSONReportExtRecovery(t *testing.T) {
	rep := runTiny(t, "ext-recovery")
	if rep.Experiment != "ext-recovery" || rep.Faults == "" {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	if len(rep.Systems) != 5 {
		t.Fatalf("systems = %d, want baseline + 4 sweep cells", len(rep.Systems))
	}
	if rep.Systems[0].Recovery != nil {
		t.Fatal("uninterrupted baseline carries recovery counters")
	}
	for _, s := range rep.Systems[1:] {
		rec := s.Recovery
		if rec == nil {
			t.Fatalf("sweep cell %s exported no recovery counters", s.Label)
		}
		if rec.Recoveries != 1 {
			t.Errorf("%s: %d recoveries, want exactly 1", s.Label, rec.Recoveries)
		}
		if rec.SnapshotBytes <= 0 || rec.DowntimeSeconds <= 0 {
			t.Errorf("%s: empty recovery (%+v)", s.Label, rec)
		}
		if rec.CheckpointEverySeconds <= 0 || rec.WALSyncEvery <= 0 {
			t.Errorf("%s: policy knobs missing (%+v)", s.Label, rec)
		}
		if s.Iterations == 0 || len(s.Series) == 0 {
			t.Errorf("%s: run produced no training history", s.Label)
		}
	}

	back := roundTrip(t, rep)
	if back.Systems[1].Recovery == nil || *back.Systems[1].Recovery != *rep.Systems[1].Recovery {
		t.Fatalf("round-trip changed the recovery block: %+v", back.Systems[1].Recovery)
	}
}
