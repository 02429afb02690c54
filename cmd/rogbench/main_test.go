package main

import (
	"os"
	"path/filepath"
	"testing"

	"rog/internal/harness"
	"rog/internal/obs"
)

// TestMode pins the mode decision: every flag either takes effect or the
// combination is refused — none is silently dropped.
func TestMode(t *testing.T) {
	cases := []struct {
		o    options
		want string // "" = refused
	}{
		{options{seeds: 1}, ""},
		{options{seeds: 1, list: true}, "list"},
		{options{seeds: 1, all: true}, "all"},
		{options{seeds: 1, exp: "fig1"}, "exp"},
		{options{seeds: 1, exp: "fig1", full: true}, "exp"},
		{options{seeds: 1, exp: "fig1", jsonPath: "out.json"}, "json"},
		{options{seeds: 3, exp: "fig1"}, "seeds"},
		{options{seeds: 1, drift: "BENCH_6.json"}, "drift"},
		// The combinations the old switch resolved by first match.
		{options{seeds: 3, exp: "fig1", jsonPath: "out.json"}, ""},
		{options{seeds: 1, drift: "BENCH_6.json", exp: "fig1"}, ""},
		{options{seeds: 1, all: true, exp: "fig1"}, ""},
		{options{seeds: 1, list: true, all: true}, ""},
		{options{seeds: 1, drift: "BENCH_6.json", full: true}, ""},
		{options{seeds: 1, jsonPath: "out.json"}, ""},
		{options{seeds: 3}, ""},
		{options{seeds: 3, all: true}, ""},
		{options{seeds: 0, exp: "fig1"}, ""},
	}
	for _, c := range cases {
		got, err := mode(c.o)
		if got != c.want || (err == nil) != (c.want != "") {
			t.Errorf("mode(%+v) = %q, %v; want %q", c.o, got, err, c.want)
		}
	}
}

// TestProfilesWritten runs a small workload build between obs.StartProfiles and
// its stop function and expects both profile files to exist, non-empty.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := obs.StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	o := harness.DefaultCRUDAOptions()
	o.PretrainIters = 20
	harness.NewCRUDA(o).Evaluate()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
