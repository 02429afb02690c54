package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rog/internal/lossnet"
)

// TestLoopDepthBitIdentical pins the one worker loop to what the two loops
// it replaced (the async and the pipelined one) produced: an FNV-1a digest over the
// traced merge sequence, the Result numbers an experiment reports and every
// replica's final weights. The
// constants were recorded at the parent of the merge (commit e37c562) with
// this same function; a change that moves one moved the virtual clock.
func TestLoopDepthBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		strategy Strategy
		thr      int
		pipeline bool
		tweak    func(*Config)
		want     uint64
	}{
		{"ROG-4 depth 0", ROG, 4, false, nil, 0x8cef3a8b4101f1ce},
		{"ROG-4 depth 1", ROG, 4, true, nil, 0x6a2948dc8a0a859b},
		{"BSP depth 0", BSP, 0, false, nil, 0xd05fc4ca5526b4e5},
		// The learning-rate schedule reads the iteration counter where the
		// loop accumulates; the whole-plan and retransmission flows ride
		// sendPlan.
		{"ROG-4 depth 1, lr decay", ROG, 4, true, func(c *Config) { c.LRDecayIters = 10 }, 0x7aa1ca1c6a1b3999},
		{"SSP-4 depth 0, lr decay, ge loss", SSP, 4, false, func(c *Config) {
			c.LRDecayIters = 10
			c.Loss = lossnet.Spec{Kind: "ge", Rate: 0.05, Burst: 8}
		}, 0xfd1b56547ab0b07a},
	}
	for _, tc := range cases {
		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		cfg := testConfig(tc.strategy, tc.thr)
		cfg.Pipeline = tc.pipeline
		if tc.tweak != nil {
			tc.tweak(&cfg)
		}
		cfg.Trace = mergeTracer(func(worker, unit int, iter int64) {
			put(uint64(worker))
			put(uint64(unit))
			put(uint64(iter))
		})
		wl := newTestWorkload(3, 41)
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		put(uint64(res.Iterations))
		put(math.Float64bits(res.TotalJoules))
		put(math.Float64bits(res.Composition.Compute))
		put(math.Float64bits(res.Composition.Comm))
		put(math.Float64bits(res.Composition.Stall))
		put(uint64(res.MaxStaleness))
		for _, m := range wl.models {
			for _, p := range m.Params() {
				for _, v := range p.Data {
					put(uint64(math.Float32bits(v)))
				}
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x (iterations %d, joules %v, composition %+v, max staleness %d)",
				tc.name, got, tc.want, res.Iterations, res.TotalJoules, res.Composition, res.MaxStaleness)
		}
	}
}
