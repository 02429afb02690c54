package harness

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rog/internal/trace"
)

// TestKernelDigestPerStrategy is the old-kernel vs new-kernel end-to-end
// check: one tiny CRUDA run per strategy, digested over what an experiment
// reports — (Iterations, FinalValue, TotalJoules) and every point of the
// accuracy curve. The constants were recorded with this same function at
// commit 8fe4ab4, whose tensor kernels are the reference loops kept verbatim
// in internal/tensor/tensor_test.go, whose NewCRUDA had no memo and whose
// Evaluate was the serial Σ Accuracy(m.Forward(evalX))/n. A digest that
// moves means a kernel reordered a sum, a memo hit differed from a build, or
// the Evaluate reduction depends on scheduling. The constants are amd64
// facts: the Go spec lets a compiler fuse acc += mv * ov, and arm64's may.
func TestKernelDigestPerStrategy(t *testing.T) {
	want := map[string]uint64{
		"BSP":    0x988adb70084e0cc2,
		"SSP-4":  0xc6f9445b8284fd74,
		"SSP-20": 0x666f69b289c1b716,
		"FLOWN":  0x7374e206b8b2cfc0,
		"ROG-4":  0x4f9645781e3a41b8,
		"ROG-20": 0xa07c34a679e5ab24,
	}
	o := EndToEndOptions{
		Paradigm: "cruda", Env: trace.Outdoor, Workers: 3, Seed: 5,
		Scale: Scale{Name: "digest", VirtualSeconds: 160, CheckpointEvery: 4, PretrainIters: 40},
	}
	for _, sys := range PaperSystems() {
		res, err := run(o.Config(sys), o.NewWorkload())
		if err != nil {
			t.Fatalf("%s: %v", sys.Label(), err)
		}
		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		put(uint64(res.Iterations))
		put(math.Float64bits(res.FinalValue))
		put(math.Float64bits(res.TotalJoules))
		for _, p := range res.Series.Points {
			put(uint64(p.Iter))
			put(math.Float64bits(p.Time))
			put(math.Float64bits(p.Energy))
			put(math.Float64bits(p.Value))
		}
		if got := h.Sum64(); got != want[sys.Label()] {
			t.Errorf("%s: digest %#x, want %#x (iterations %d, final %v, joules %v, %d checkpoints)",
				sys.Label(), got, want[sys.Label()], res.Iterations, res.FinalValue, res.TotalJoules, len(res.Series.Points))
		}
	}
}
