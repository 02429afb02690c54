package obs

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile / -memprofile pair every binary offers, so
// that "why is this binary slow" has an answer without writing a test for
// it: go tool pprof -top <file> reads either output.
type Profiles struct{ cpu, mem *string }

// ProfileFlags registers the pair on the default flag set; call it before
// flag.Parse and Start after.
func ProfileFlags() Profiles {
	return Profiles{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)"),
		mem: flag.String("memprofile", "", "write an allocation profile of the run to this file"),
	}
}

// Start begins the profiles the command line asked for; see StartProfiles.
func (p Profiles) Start() (stop func() error, err error) { return StartProfiles(*p.cpu, *p.mem) }

// StartProfiles begins a CPU profile into cpuPath and returns the function
// that ends it and writes the allocation profile to memPath; either path may
// be empty. A run that fails (exit 1) never reaches stop and leaves neither.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // nothing was written; the start error is the one to report
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath != "" && err == nil {
			var buf bytes.Buffer
			runtime.GC() // so the profile counts what the run allocated up to its end
			if err = pprof.Lookup("allocs").WriteTo(&buf, 0); err == nil {
				err = os.WriteFile(memPath, buf.Bytes(), 0o644)
			}
		}
		return err
	}, nil
}
