package analysis

import (
	"encoding/json"
	"go/token"
	"sort"
	"testing"
)

// TestDefaultPassesSuite pins the suite's size and order — the -list
// surface CI and the docs quote.
func TestDefaultPassesSuite(t *testing.T) {
	want := []string{
		"lockguard", "wallclock", "maporder", "wireframe",
		"errdrop", "lockorder",
	}
	passes := DefaultPasses()
	if len(passes) != len(want) {
		t.Fatalf("suite has %d passes, want %d", len(passes), len(want))
	}
	for i, p := range passes {
		if p.Name() != want[i] {
			t.Errorf("pass %d = %q, want %q", i, p.Name(), want[i])
		}
		if p.Doc() == "" {
			t.Errorf("pass %q has no doc", p.Name())
		}
	}
}

func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(DefaultPasses()) {
		t.Fatalf("empty spec selects %d passes, want the full suite", len(all))
	}

	// Selection keeps suite order regardless of spec order.
	got, err := SelectPasses("lockorder, lockguard")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name() != "lockguard" || got[1].Name() != "lockorder" {
		names := []string{}
		for _, p := range got {
			names = append(names, p.Name())
		}
		t.Fatalf("got %v, want [lockguard lockorder]", names)
	}

	if _, err := SelectPasses("nosuchpass"); err == nil {
		t.Fatal("unknown pass accepted")
	}
}

// fakePass emits a fixed set of diagnostics, for driver-behavior tests
// that need unsorted and duplicated input.
type fakePass struct {
	name  string
	diags []Diagnostic
}

func (f *fakePass) Name() string                  { return f.name }
func (f *fakePass) Doc() string                   { return "fake" }
func (f *fakePass) Run(pkg *Package) []Diagnostic { return f.diags }

// TestAnalyzeSortsAndDedups feeds deliberately shuffled, duplicated
// findings through the driver and expects position-sorted unique output.
func TestAnalyzeSortsAndDedups(t *testing.T) {
	pkgs, err := Load("testdata/src/suppress", "")
	if err != nil {
		t.Fatal(err)
	}
	at := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	noisy := &fakePass{name: "fake", diags: []Diagnostic{
		{Pos: at("z.go", 9), Pass: "fake", Msg: "last"},
		{Pos: at("a.go", 2), Pass: "fake", Msg: "dup"},
		{Pos: at("a.go", 2), Pass: "fake", Msg: "dup"},
		{Pos: at("a.go", 1), Pass: "fake", Msg: "first"},
	}}
	diags := Analyze(pkgs, []Pass{noisy})

	var fake []Diagnostic
	for _, d := range diags {
		if d.Pass == "fake" {
			fake = append(fake, d)
		}
	}
	if len(fake) != 3 {
		t.Fatalf("want 3 unique fake findings, got %d: %v", len(fake), fake)
	}
	if fake[0].Msg != "first" || fake[1].Msg != "dup" || fake[2].Msg != "last" {
		t.Errorf("not position-sorted: %v", fake)
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	}) {
		t.Errorf("full output not sorted: %v", diags)
	}
}

// TestAnalyzeTimed checks the timing sidecar lines up with the pass
// list, driving the full suite over a fixture tree.
func TestAnalyzeTimed(t *testing.T) {
	pkgs, err := Load("testdata/src/suppress", "")
	if err != nil {
		t.Fatal(err)
	}
	passes := DefaultPasses()
	_, timings := AnalyzeTimed(pkgs, passes)
	if len(timings) != len(passes) {
		t.Fatalf("%d timings for %d passes", len(timings), len(passes))
	}
	for i, tm := range timings {
		if tm.Pass != passes[i].Name() {
			t.Errorf("timing %d is %q, want %q", i, tm.Pass, passes[i].Name())
		}
		if tm.Seconds < 0 {
			t.Errorf("pass %q has negative elapsed time", tm.Pass)
		}
	}
}

// TestUnusedIgnoreAcrossNewPasses checks an ignore naming a new pass is
// flagged as unused when that pass runs and silences nothing.
func TestUnusedIgnoreAcrossNewPasses(t *testing.T) {
	pkgs, err := Load("testdata/src/suppress", "")
	if err != nil {
		t.Fatal(err)
	}
	// The suppress fixture's ignores name maporder only; running the
	// whole suite must not invent unused-ignore findings for passes the
	// fixture never mentions, and the maporder results must be identical
	// to a maporder-only run.
	whole := diagSummaries(Analyze(pkgs, DefaultPasses()))
	only := diagSummaries(Analyze(pkgs, []Pass{NewMaporder()}))
	for _, s := range only {
		if !containsSummary(whole, s) {
			t.Errorf("full-suite run lost finding %q", s)
		}
	}
}

// TestEncodeJSON pins the machine-readable surface: one object per
// finding with pass/file/line/col/msg, in driver order.
func TestEncodeJSON(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "x.go", Line: 3, Column: 7}, Pass: "lockorder", Msg: "boom"},
	}
	raw, err := EncodeJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("EncodeJSON produced invalid JSON: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("want 1 element, got %d", len(out))
	}
	for key, want := range map[string]any{
		"pass": "lockorder", "file": "x.go", "line": float64(3), "col": float64(7), "msg": "boom",
	} {
		if out[0][key] != want {
			t.Errorf("field %q = %v, want %v", key, out[0][key], want)
		}
	}

	empty, err := EncodeJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var zero []map[string]any
	if err := json.Unmarshal(empty, &zero); err != nil || len(zero) != 0 {
		t.Errorf("empty encoding should be an empty array, got %s (err %v)", empty, err)
	}
}
