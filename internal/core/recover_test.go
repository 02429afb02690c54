package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"rog/internal/durable"
	"rog/internal/nn"
	"rog/internal/simnet"
)

// durableConfig is testConfig plus a fresh MemFS-backed checkpoint store.
func durableConfig(t *testing.T, s Strategy, threshold int) (Config, *durable.Store, *durable.MemFS) {
	t.Helper()
	cfg := testConfig(s, threshold)
	fs := durable.NewMemFS()
	st, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Durable = st
	cfg.SnapshotEverySeconds = 20
	return cfg, st, fs
}

// TestServerCrashRecoversAndCompletes kills the parameter server mid-run
// with real downtime and a batched (lossy) WAL: the team must ride out the
// outage, recovery must replay the journal, and the run must still reach
// its iteration target. This is the simnet half of the livenet chaos test.
func TestServerCrashRecoversAndCompletes(t *testing.T) {
	for _, s := range []Strategy{ROG, SSP} {
		cfg, st, _ := durableConfig(t, s, 4)
		st.SyncEvery = 64 // batch syncs so the crash actually loses WAL tail
		faults, err := simnet.ParseFaultSchedule("servercrash@30+10")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = faults
		cfg.MaxIterations = 25
		cfg.MaxVirtualSeconds = 2000
		cfg.RecoverySecondsPerMB = 0.5
		res, err := Run(cfg, newTestWorkload(3, 31))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Iterations < 25 {
			t.Errorf("%v: completed only %d iterations across the server crash", s, res.Iterations)
		}
		if res.Recovery.Recoveries != 1 {
			t.Errorf("%v: recovery counters %+v, want 1 recovery", s, res.Recovery)
		}
		if res.Recovery.DowntimeSeconds < 10 {
			t.Errorf("%v: downtime %.2fs below the scheduled 10 s outage", s, res.Recovery.DowntimeSeconds)
		}
		if res.Recovery.SnapshotBytes <= 0 {
			t.Errorf("%v: recovery restored no snapshot bytes", s)
		}
		if st.Epoch() < 1 {
			t.Errorf("%v: store epoch %d after a recovery", s, st.Epoch())
		}
	}
}

// TestServerCrashDeterminism is the seeded determinism property: a run that
// crashes and recovers the server mid-flight — with an every-append-synced
// WAL and instantaneous recovery — must reproduce the uninterrupted run of
// the same seed bit-for-bit. Recovery is snapshot + full replay, so the
// swapped-in state is the state that crashed; nothing downstream may
// notice.
func TestServerCrashDeterminism(t *testing.T) {
	base, err := Run(testConfig(ROG, 4), newTestWorkload(3, 33))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := durableConfig(t, ROG, 4)
	faults, err := simnet.ParseFaultSchedule("servercrash@25")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults // zero downtime, zero RecoverySecondsPerMB
	crashed, err := Run(cfg, newTestWorkload(3, 33))
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Recovery.Recoveries != 1 {
		t.Fatalf("recovery counters %+v, want exactly 1 recovery", crashed.Recovery)
	}
	if crashed.Recovery.RowsLost != 0 {
		t.Fatalf("every-append sync lost %d rows", crashed.Recovery.RowsLost)
	}
	if base.Iterations != crashed.Iterations ||
		base.FinalValue != crashed.FinalValue ||
		base.Composition != crashed.Composition ||
		base.TotalJoules != crashed.TotalJoules {
		t.Fatalf("crash+recover diverged from the uninterrupted run:\n %d/%v/%+v/%v\nvs %d/%v/%+v/%v",
			base.Iterations, base.FinalValue, base.Composition, base.TotalJoules,
			crashed.Iterations, crashed.FinalValue, crashed.Composition, crashed.TotalJoules)
	}
}

// TestResumeContinuesRun restarts the whole process: run to 10 iterations,
// reopen the same filesystem, resume, and run to 25. The resumed run must
// pick the counters up where the checkpoint left them.
func TestResumeContinuesRun(t *testing.T) {
	cfg, _, fs := durableConfig(t, ROG, 4)
	cfg.MaxIterations = 10
	wl := newTestWorkload(3, 35)
	res1, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Iterations != 10 {
		t.Fatalf("first leg ran %d iterations", res1.Iterations)
	}

	// A fresh store over the same files refuses to start over silently.
	st2, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(ROG, 4)
	cfg2.Durable = st2
	cfg2.SnapshotEverySeconds = 20
	cfg2.MaxIterations = 25
	if _, err := Run(cfg2, newTestWorkload(3, 35)); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("restart without Resume: err = %v", err)
	}

	st3, err := durable.Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := testConfig(ROG, 4)
	cfg3.Durable = st3
	cfg3.SnapshotEverySeconds = 20
	cfg3.MaxIterations = 25
	cfg3.Resume = true
	res2, err := Run(cfg3, newTestWorkload(3, 35))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations != 25 {
		t.Fatalf("resumed leg ended at %d iterations, want 25", res2.Iterations)
	}
	if res2.Recovery.Recoveries != 1 {
		t.Fatalf("resume recovery counters %+v", res2.Recovery)
	}
	if st3.Epoch() < st2.Epoch() {
		t.Fatalf("epoch went backwards across resume")
	}
}

// TestValidateDurableRules pins the config surface: servercrash faults and
// Resume both demand a checkpoint store.
func TestValidateDurableRules(t *testing.T) {
	cfg := testConfig(ROG, 4)
	faults, err := simnet.ParseFaultSchedule("servercrash@10")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults
	if err := cfg.Validate(); err == nil {
		t.Fatal("servercrash without Durable accepted")
	}
	cfg = testConfig(ROG, 4)
	cfg.Resume = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("Resume without Durable accepted")
	}
	cfg = testConfig(ROG, 4)
	cfg.RecoverySecondsPerMB = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative RecoverySecondsPerMB accepted")
	}
}

// resumePayloadReference is resumePayload as it stood before the cluster
// kept a payload buffer: a bytes.Buffer, and a fresh checkpoint per model
// (nn's tests hold AppendParams to the binary.Write encoder). The reused
// buffer must keep producing exactly its bytes.
func resumePayloadReference(c *cluster) []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], resumePayloadVersion)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(c.cfg.Workers))
	buf.Write(u32[:])
	var i64 [8]byte
	for w := 0; w < c.cfg.Workers; w++ {
		binary.LittleEndian.PutUint64(i64[:], uint64(c.iter[w]))
		buf.Write(i64[:])
	}
	for w := 0; w < c.cfg.Workers; w++ {
		mb := c.wl.Model(w).AppendParams(nil)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(mb)))
		buf.Write(u32[:])
		buf.Write(mb)
	}
	return buf.Bytes()
}

// modelBits lists a model's weights as bit patterns, so −0 and NaN
// payloads compare exactly.
func modelBits(m *nn.Sequential) []uint32 {
	var out []uint32
	for _, p := range m.Params() {
		for _, v := range p.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

// TestResumePayloadMatchesReference: the reused-buffer payload equals the
// bytes.Buffer encoder's on models holding −0, ±Inf and NaN weights, call
// after call, costs no allocation once its buffer has grown, and
// applyResumePayload restores the counters and every weight bit.
func TestResumePayloadMatchesReference(t *testing.T) {
	special := []float32{
		float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00002),
	}
	c := newCluster(testConfig(ROG, 4), newTestWorkload(3, 31))
	for w := 0; w < c.cfg.Workers; w++ {
		for i, p := range c.wl.Model(w).Params() {
			copy(p.Data[i%2:], special)
		}
		c.iter[w] = int64(100*w + 7)
	}
	if got, want := c.resumePayload(), resumePayloadReference(c); !bytes.Equal(got, want) {
		t.Fatal("resumePayload differs from the bytes.Buffer encoder")
	}
	// The second payload overwrites the first in place and must still match.
	c.iter[1] = 1 << 40
	c.wl.Model(2).Params()[0].Data[3] = float32(math.NaN())
	got := c.resumePayload()
	if want := resumePayloadReference(c); !bytes.Equal(got, want) {
		t.Fatal("resumePayload differs from the reference after the state moved")
	}
	if n := testing.AllocsPerRun(20, func() { c.resumePayload() }); n != 0 {
		t.Fatalf("resumePayload allocates %v times after its first call, want 0", n)
	}

	d := newCluster(testConfig(ROG, 4), newTestWorkload(3, 77))
	if err := d.applyResumePayload(got); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < c.cfg.Workers; w++ {
		if d.iter[w] != c.iter[w] {
			t.Fatalf("worker %d: restored iteration %d, saved %d", w, d.iter[w], c.iter[w])
		}
		if !slices.Equal(modelBits(d.wl.Model(w)), modelBits(c.wl.Model(w))) {
			t.Fatalf("worker %d: restored weights differ in their bits", w)
		}
	}
}
