package core

import (
	"bytes"
	"fmt"
	"testing"

	"rog/internal/lossnet"
	"rog/internal/obs"
)

// lossConfig is testConfig plus a 5% Gilbert–Elliott loss channel — the
// acceptance schedule of the loss-tolerant transport.
func lossConfig(s Strategy, threshold int, rel lossnet.Reliability) Config {
	cfg := testConfig(s, threshold)
	cfg.Loss = lossnet.Spec{Kind: "ge", Rate: 0.05, Burst: 8}
	cfg.Reliability = rel
	return cfg
}

// TestROGSelectiveRSPBoundUnderLoss is the correctness half of the
// acceptance criteria: with 5% bursty loss and selective reliability, the
// RSP staleness bound must hold at every kernel event, no row may starve
// (the Must prefix — which carries RSP-forced rows — is the reliable
// class, so loss can delay but never skip them), and the workload must
// still complete.
func TestROGSelectiveRSPBoundUnderLoss(t *testing.T) {
	cfg := lossConfig(ROG, 4, lossnet.Selective)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := newTestWorkload(3, 6)
	c := newCluster(cfg, wl)
	c.checkpoint()
	c.launch()
	for c.k.Step() {
		if ahead := c.state.Versions.MaxAhead(); ahead > int64(cfg.Threshold) {
			t.Fatalf("RSP bound violated under loss: %d > %d", ahead, cfg.Threshold)
		}
	}
	if c.iter[0] != int64(cfg.MaxIterations) {
		t.Fatalf("worker0 completed %d of %d iterations under loss", c.iter[0], cfg.MaxIterations)
	}
	for w := 0; w < cfg.Workers; w++ {
		for u := 0; u < c.part.NumUnits(); u++ {
			if lag := c.iter[w] - c.rep[w].PushIter[u]; lag >= int64(cfg.Threshold) {
				t.Fatalf("worker %d unit %d starved under loss: lag %d", w, u, lag)
			}
		}
	}
	if !c.state.Loss.Enabled() {
		t.Fatal("5% loss schedule left no trace in the loss stats")
	}
	if c.state.Loss.RowsLostFolded == 0 {
		t.Fatal("selective reliability never folded a best-effort row at 5% loss")
	}
}

// TestSelectiveBeatsAllReliable is the performance half: same workload,
// same seed, same loss schedule — selective reliability must spend
// strictly fewer retransmitted bytes than all-reliable mode, because only
// the Must prefix retransmits.
func TestSelectiveBeatsAllReliable(t *testing.T) {
	sel, err := Run(lossConfig(ROG, 4, lossnet.Selective), newTestWorkload(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(lossConfig(ROG, 4, lossnet.AllReliable), newTestWorkload(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Iterations != all.Iterations {
		t.Fatalf("modes completed different workloads: %d vs %d iterations", sel.Iterations, all.Iterations)
	}
	if all.Loss.RetransmitBytes == 0 {
		t.Fatal("all-reliable mode retransmitted nothing at 5% loss")
	}
	if sel.Loss.RetransmitBytes >= all.Loss.RetransmitBytes {
		t.Fatalf("selective retransmitted %.0f bytes, all-reliable %.0f — selective must be strictly cheaper",
			sel.Loss.RetransmitBytes, all.Loss.RetransmitBytes)
	}
	if sel.Loss.RowsLostFolded == 0 {
		t.Fatal("selective mode folded no rows")
	}
	if all.Loss.RowsLostFolded != 0 {
		t.Fatalf("all-reliable mode folded %d rows — everything should retransmit", all.Loss.RowsLostFolded)
	}
}

// TestBSPAllReliableUnderLoss pins the baseline behaviour the harness
// experiment contrasts against: BSP's whole-model plans have no
// best-effort class, so every lost row costs a retransmission round and
// nothing folds back.
func TestBSPUnderLoss(t *testing.T) {
	res, err := Run(lossConfig(BSP, 0, lossnet.Selective), newTestWorkload(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("BSP under loss completed %d iterations", res.Iterations)
	}
	if res.Loss.RowsRetransmitted == 0 {
		t.Fatal("BSP retransmitted nothing at 5% loss")
	}
	if res.Loss.RowsLostFolded != 0 {
		t.Fatalf("BSP folded %d rows — whole-model plans are fully reliable", res.Loss.RowsLostFolded)
	}
}

// TestLosslessPathUntouched guards the baseline: a zero Loss spec must
// leave results bit-identical to a build without any loss machinery, which
// the shared RNG streams guarantee only if no extra draws happen.
func TestLosslessPathUntouched(t *testing.T) {
	a, err := Run(testConfig(ROG, 4), newTestWorkload(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss.Enabled() {
		t.Fatalf("lossless run recorded loss stats: %+v", a.Loss)
	}
}

// traceLossyRun executes one seeded lossy run with the JSONL tracer
// attached and returns the raw trace bytes.
func traceLossyRun(t *testing.T, rel lossnet.Reliability) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	cfg := lossConfig(ROG, 4, rel)
	cfg.Trace = tr
	if _, err := Run(cfg, newTestWorkload(4, 6)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLossyRunDeterministic is the reproducibility acceptance criterion:
// same seed + same loss schedule ⇒ bit-identical runs, asserted on the
// full event trace.
func TestLossyRunDeterministic(t *testing.T) {
	a := traceLossyRun(t, lossnet.Selective)
	b := traceLossyRun(t, lossnet.Selective)
	if !bytes.Equal(a, b) {
		t.Fatalf("seeded lossy runs diverged: %d vs %d trace bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TestLossTracePairing runs the aggregation over a lossy trace and checks
// the structural invariant: every best-effort gap folded back, every
// reliable loss retransmitted — and the trace totals agree with the
// Result counters. The second case crashes a worker on a 30 % channel: its
// rejoin resync rides the same send path as every other row, so it rolls
// the loss model too — all of it reliable, every dropped row sent again
// (RowsLost/Retransmit pairs between the Resync and the worker's next
// IterStart; the resync used to start its own flow and crossed unharmed).
func TestLossTracePairing(t *testing.T) {
	crash := churnConfig(ROG, 4, "crash:1@30+60")
	crash.Loss = lossnet.Spec{Kind: "iid", Rate: 0.3}
	for name, cfg := range map[string]Config{
		"ge:0.05":         lossConfig(ROG, 4, lossnet.Selective),
		"crash + iid:0.3": crash,
	} {
		var buf bytes.Buffer
		var log eventLog
		tr := obs.NewJSONLTracer(&buf)
		cfg.Trace = obs.Tee(tr, &log)
		res, err := Run(cfg, newTestWorkload(3, 6))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		an, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sum := an.Summary()
		for _, pe := range sum.PairErrors {
			t.Errorf("%s: pair error: %s", name, pe)
		}
		if sum.RowsLostRetrans != sum.RowsRetransmitted {
			t.Errorf("%s: %d rows lost for retransmission, %d retransmitted", name, sum.RowsLostRetrans, sum.RowsRetransmitted)
		}
		if sum.RowsLostFolded != int64(res.Loss.RowsLostFolded) {
			t.Fatalf("%s: trace folded %d, result %d", name, sum.RowsLostFolded, res.Loss.RowsLostFolded)
		}
		if sum.RowsRetransmitted != int64(res.Loss.RowsRetransmitted) {
			t.Fatalf("%s: trace retransmitted %d, result %d", name, sum.RowsRetransmitted, res.Loss.RowsRetransmitted)
		}
		if sum.RetransmitBytes != res.Loss.RetransmitBytes {
			t.Fatalf("%s: trace retransmit bytes %.0f, result %.0f", name, sum.RetransmitBytes, res.Loss.RetransmitBytes)
		}
		if len(cfg.Faults) == 0 {
			continue
		}
		resyncing, repeated := false, 0
		for _, e := range log {
			if e.Worker != 1 {
				continue
			}
			switch e.Kind {
			case obs.KindResync:
				resyncing = true
			case obs.KindIterStart:
				resyncing = false
			case obs.KindRetransmit:
				if resyncing && e.Dir == obs.DirPull {
					repeated += e.Units
				}
			}
		}
		if sum.Resyncs != 1 || repeated == 0 {
			t.Errorf("%s: %d resyncs, %d resync rows retransmitted — the resync crossed a 30 %% loss channel unharmed",
				name, sum.Resyncs, repeated)
		}
	}
}

// TestLossConfigValidate pins the config-surface error paths.
func TestLossConfigValidate(t *testing.T) {
	cfg := testConfig(ROG, 4)
	cfg.Loss = lossnet.Spec{Kind: "ge", Rate: 0.9}
	if err := cfg.Validate(); err == nil {
		t.Fatal("rate 0.9 accepted")
	}
	cfg = testConfig(ROG, 4)
	cfg.Loss = lossnet.Spec{Kind: "trace"}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown loss model \"trace\" accepted")
	}
}

// TestLossyCritPathCoverageExact holds the critical path of a lossy depth-0
// run to its definition: a RowsSent's seconds already include the
// transmission's retransmission rounds, so a worker's comm is exactly the
// summed RowsSent seconds of its finished iterations and its coverage is
// 1, never more — directly and through edge aggregators.
func TestLossyCritPathCoverageExact(t *testing.T) {
	for _, st := range []struct {
		s   Strategy
		thr int
	}{{ROG, 4}, {BSP, 0}} {
		for _, aggs := range []int{0, 2} {
			name := fmt.Sprintf("%v aggs=%d", st.s, aggs)
			cfg := testConfig(st.s, st.thr)
			cfg.Workers, cfg.Aggregators = 4, aggs
			var err error
			if cfg.Loss, err = lossnet.ParseSpec("iid:0.05"); err != nil {
				t.Fatal(err)
			}
			type key struct {
				w int
				n int64
			}
			open, sent := map[key]float64{}, map[int]float64{}
			cp := obs.NewCritPath()
			cfg.Trace = obs.Tee(cp, tracerFunc(func(e obs.Event) {
				switch k := (key{e.Worker, e.Iter}); e.Kind {
				case obs.KindRowsSent:
					open[k] += e.Seconds
				case obs.KindIterEnd:
					sent[e.Worker] += open[k]
					delete(open, k)
				}
			}))
			if _, err := Run(cfg, newTestWorkload(4, 6)); err != nil {
				t.Fatal(err)
			}
			rep := cp.Report()
			if len(rep.Errors) != 0 {
				t.Fatalf("%s: %v", name, rep.Errors)
			}
			if cp.Summary().RetransmitSeconds == 0 {
				t.Fatalf("%s: nothing retransmitted", name)
			}
			for _, w := range rep.Workers {
				if w.Coverage < 0.99 || w.Coverage > 1+1e-9 {
					t.Errorf("%s: worker %d coverage %g, want [0.99, 1]", name, w.Worker, w.Coverage)
				}
				if !closeEnough(w.CommSeconds, sent[w.Worker]) {
					t.Errorf("%s: worker %d comm %gs, RowsSent %gs", name, w.Worker, w.CommSeconds, sent[w.Worker])
				}
			}
		}
	}
}
