package harness

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tinyRun caches the one execution of an experiment id this test binary is
// allowed: every test that needs an id's report goes through runTiny, and
// TestMain fails the binary if any id ran twice.
type tinyRun struct {
	once sync.Once
	runs int
	rep  *Report
	err  error
}

var tinyRuns = func() map[string]*tinyRun {
	m := map[string]*tinyRun{}
	for _, e := range Registry() {
		m[e.ID] = &tinyRun{}
	}
	return m
}()

// runTiny returns id's report at tinyScale, executing it on first use.
func runTiny(t *testing.T, id string) *Report {
	t.Helper()
	r, ok := tinyRuns[id]
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	r.once.Do(func() {
		e, _ := Find(id)
		r.runs++
		r.rep, r.err = e.Run(tinyScale)
	})
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.rep
}

func TestMain(m *testing.M) {
	code := m.Run()
	for id, r := range tinyRuns {
		if r.runs > 1 {
			fmt.Fprintf(os.Stderr, "experiment %s executed %d times in one test binary\n", id, r.runs)
			code = 1
		}
	}
	os.Exit(code)
}

// TestEveryExperimentRunsAtTinyScale executes the entire registry at a
// reduced scale, the experiments side by side — the same code paths the
// paper-scale runs take, end to end — and checks both views of each run: the
// text carries its banner, and the report has systems exactly when the
// experiment trains (every one but fig3 and the tables), each uniquely
// labelled, surviving a JSON round trip with no drift against itself.
// Skipped under -short.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep skipped in -short mode")
	}
	textOnly := []string{"fig3", "table1", "table2", "table3"}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep := runTiny(t, e.ID)
			if len(rep.Text) < 80 {
				t.Fatalf("%s: suspiciously short report:\n%s", e.ID, rep.Text)
			}
			if !strings.Contains(rep.Text, "==") {
				t.Fatalf("%s: missing title banner:\n%s", e.ID, rep.Text)
			}
			if rep.Experiment != e.ID || rep.Scale != "tiny" {
				t.Fatalf("%s: report stamped %q at scale %q", e.ID, rep.Experiment, rep.Scale)
			}
			if trains := !slices.Contains(textOnly, e.ID); trains != (len(rep.Systems) > 0) {
				t.Fatalf("%s: trains=%v but the report has %d systems", e.ID, trains, len(rep.Systems))
			}
			if len(rep.Systems) == 0 {
				return
			}
			labels := map[string]bool{}
			for _, sys := range rep.Systems {
				if sys.Label == "" || labels[sys.Label] {
					t.Fatalf("%s: system label %q is empty or not unique", e.ID, sys.Label)
				}
				labels[sys.Label] = true
			}
			back := roundTrip(t, rep)
			lines, err := DriftTable(back, rep)
			if err != nil {
				t.Fatal(err)
			}
			if len(lines) != 0 {
				t.Fatalf("%s: report drifts against its own JSON:\n%s", e.ID, strings.Join(lines, "\n"))
			}
		})
	}
}

// roundTrip writes rep as JSON and reads it back.
func roundTrip(t *testing.T, rep *Report) *Report {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONReport(&buf)
	if err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	return back
}
