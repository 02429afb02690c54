package harness

import (
	"bytes"
	"strings"
	"testing"

	"rog/internal/obs"
	"rog/internal/simnet"
)

func TestServeCellBoundedStaleness(t *testing.T) {
	run, err := runServeCell(serveCell{clients: 4, window: 0.05, bound: 2}, 20, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Requests == 0 {
		t.Fatal("cell served nothing")
	}
	if run.MaxObservedStaleness > 2 {
		t.Fatalf("observed staleness %d over bound 2", run.MaxObservedStaleness)
	}
	if run.Snapshots < run.TrainRounds {
		t.Fatalf("%d publishes for %d training rounds", run.Snapshots, run.TrainRounds)
	}
	if run.quantile(0.99) < run.quantile(0.50) {
		t.Fatalf("quantiles unordered: p50 %g > p99 %g", run.quantile(0.50), run.quantile(0.99))
	}
}

func TestServeCellWaitForFreshParks(t *testing.T) {
	run, err := runServeCell(serveCell{clients: 2, window: 0, bound: 0, lead: 1}, 20, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.ReadStalls == 0 {
		t.Fatal("wait-for-fresh clients never hit the read gate")
	}
	if run.ReadStalls != int64(len(run.latencies)) {
		t.Fatalf("%d stalls for %d requests: every lead-1 request should park", run.ReadStalls, len(run.latencies))
	}
}

// TestServeTrainingUnperturbed is the observer-effect gate: attaching the
// full serving tier (publisher, server, clients) to a training run must
// leave the training side bit-identical — same state digest, same traced
// training events — as the same-seed train-only run. The observer absorbs
// under the shard lock but schedules nothing and writes no training state,
// so virtual time and merge order cannot shift.
func TestServeTrainingUnperturbed(t *testing.T) {
	const seconds, seed = 20, 9

	// Train-only run, traced.
	var baseBuf bytes.Buffer
	baseK := simnet.NewKernel()
	baseTr := obs.NewJSONLTracer(&baseBuf)
	baseProbe := obs.NewProbe(baseTr, nil, baseK.Now)
	base, err := newServeTraining(baseK, seconds, seed, baseProbe)
	if err != nil {
		t.Fatal(err)
	}
	baseK.RunUntilIdle(1_000_000)
	if err := baseTr.Close(); err != nil {
		t.Fatal(err)
	}

	// Train+serve run with the same seed, traced through the same probe.
	var servBuf bytes.Buffer
	servTr := obs.NewJSONLTracer(&servBuf)
	run, err := runServeCell(serveCell{clients: 4, window: 0.05, bound: 1}, seconds, seed, servTr)
	if err != nil {
		t.Fatal(err)
	}
	if run.Requests == 0 {
		t.Fatal("serving side did nothing; the non-perturbation claim would be vacuous")
	}
	if err := servTr.Close(); err != nil {
		t.Fatal(err)
	}

	// The serving tier must not have moved a single training bit. The
	// digests cover every stamped version, RowIter entry and accumulated
	// averaged row.
	if base.digest() != run.digest {
		t.Fatalf("training state diverged: train-only %x, train+serve %x", base.digest(), run.digest)
	}

	// And the training slice of the event stream must be byte-identical.
	baseEvents := trainingEvents(t, baseBuf.String())
	servEvents := trainingEvents(t, servBuf.String())
	if baseEvents != servEvents {
		t.Fatalf("traced training events diverged:\ntrain-only %d bytes\ntrain+serve %d bytes",
			len(baseEvents), len(servEvents))
	}
	if !strings.Contains(servBuf.String(), "SnapshotPublish") {
		t.Fatal("train+serve trace carries no serving events")
	}
}

// trainingEvents strips the serving-tier kinds from a JSONL trace,
// leaving the training stream for byte comparison.
func trainingEvents(t *testing.T, raw string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		if strings.Contains(line, "SnapshotPublish") || strings.Contains(line, "Request") ||
			strings.Contains(line, "ReadStall") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestServeJSONReport(t *testing.T) {
	rep := runTiny(t, "serve")
	if rep.Experiment != "serve" || len(rep.Systems) != len(serveCells()) {
		t.Fatalf("report %q with %d systems, want serve/%d", rep.Experiment, len(rep.Systems), len(serveCells()))
	}
	for _, sys := range rep.Systems {
		if sys.Serve == nil {
			t.Fatalf("system %s has no serve cell report", sys.Label)
		}
		if sys.Serve.Requests == 0 {
			t.Fatalf("system %s served nothing", sys.Label)
		}
		if sys.Serve.MaxObservedStaleness > sys.Serve.StalenessBound {
			t.Fatalf("system %s: staleness %d over bound %d",
				sys.Label, sys.Serve.MaxObservedStaleness, sys.Serve.StalenessBound)
		}
		if sys.FinalValue != sys.Serve.P95Seconds {
			t.Fatalf("system %s: final value %g != p95 %g", sys.Label, sys.FinalValue, sys.Serve.P95Seconds)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"serve"`, `"throughput_rps"`, `"p95_seconds"`, `"max_observed_staleness"`} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("JSON report missing %s", key)
		}
	}
}
