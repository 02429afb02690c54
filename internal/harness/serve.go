package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"rog/internal/engine"
	"rog/internal/metrics"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/simnet"
	"rog/internal/tensor"
)

// The serve experiment drives the inference tier end to end on a simnet
// kernel: a scripted training fleet advances the shared State round by
// round while closed-loop clients issue inference requests against the
// Publisher's snapshots. The sweep varies concurrent clients × batching
// window × staleness bound and reports latency quantiles, throughput,
// snapshot swaps and the observed read staleness — asserting in every cell
// that no request was answered from a snapshot older than its bound
// allows, the serving-side mirror of training's RSP guarantee.

// serveCell is one sweep point. A request issued when `expected` rounds
// are complete demands version ≥ expected − bound + lead: bound is the
// staleness it tolerates, and a positive lead makes it a wait-for-fresh
// client that parks on the read gate until the round currently in flight
// publishes.
type serveCell struct {
	clients int
	window  float64 // batching window (virtual seconds)
	bound   int64   // staleness bound: tolerate snapshots this many rounds old
	lead    int64   // freshness lead: demand rounds not yet complete
}

func (c serveCell) label() string {
	l := fmt.Sprintf("c%d-w%.2f-b%d", c.clients, c.window, c.bound)
	if c.lead > 0 {
		l += fmt.Sprintf("-f%d", c.lead)
	}
	return l
}

// serveCells is the sweep: instant serving at a tight bound, growing
// client counts against wider windows and looser bounds, then the
// wait-for-fresh cells that exercise the read gate on every round edge.
func serveCells() []serveCell {
	return []serveCell{
		{2, 0, 0, 0},
		{4, 0.05, 0, 0},
		{4, 0.05, 2, 0},
		{8, 0.10, 2, 0},
		{8, 0.05, 0, 1},
		{16, 0.10, 0, 1},
	}
}

// serveWorkers and the schedule constants shape the scripted trainer: each
// worker merges one iteration per period, phase-shifted so merges never
// tie on the kernel's event queue.
const (
	serveWorkers   = 4
	servePeriod    = 1.0
	servePhaseStep = 0.031
	serveThreshold = 8
	serveLR        = 0.05
)

// serveTraining is the scripted training side of a serve run: a tiny MLP,
// its row partition, the sharded State, and the merge schedule on the
// kernel. The gradient stream is a deterministic function of the seed
// alone, so attaching a Publisher (whose observer runs inside merges but
// adds no events and writes no training state) cannot perturb it — the
// bit-identity test in serve_test.go holds the trainer to that.
type serveTraining struct {
	k     *simnet.Kernel
	st    *engine.State
	part  *rowsync.Partition
	model *nn.Sequential
	iters int64 // rounds the schedule will complete
}

// newServeTraining builds the trainer and schedules every merge. Worker w
// merges iteration n (1-based) at n·period + w·phaseStep; a round is
// complete — and the global minimum advances — when its slowest worker
// merges.
func newServeTraining(k *simnet.Kernel, seconds float64, seed uint64, probe *obs.Probe) (*serveTraining, error) {
	model := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(seed))
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	pol, err := engine.New("rog", engine.Params{
		Workers: serveWorkers, Threshold: serveThreshold, NumUnits: part.NumUnits(),
	})
	if err != nil {
		return nil, fmt.Errorf("harness: serve trainer: %w", err)
	}
	st := engine.NewStateSharded(pol, part, serveWorkers, 1.0, 4)
	st.Probe = probe

	tr := &serveTraining{k: k, st: st, part: part, model: model}
	lastPhase := float64(serveWorkers-1) * servePhaseStep
	tr.iters = int64((seconds - lastPhase) / servePeriod)

	units := make([]int, part.NumUnits())
	for u := range units {
		units[u] = u
	}
	for w := 0; w < serveWorkers; w++ {
		w := w
		rng := tensor.NewRNG(seed*100003 + uint64(w)*31 + 7)
		for n := int64(1); n <= tr.iters; n++ {
			n := n
			at := float64(n)*servePeriod + float64(w)*servePhaseStep
			k.At(at, func() {
				vals := make([][]float32, len(units))
				for u := range units {
					row := make([]float32, part.Unit(u).Len)
					for i := range row {
						row[i] = float32(rng.Norm() * 0.01)
					}
					vals[u] = row
				}
				st.MergeBatch(w, units, vals, n)
			})
		}
	}
	return tr, nil
}

// completedRounds is the version floor a request issued at time t can
// demand knowledge of: round n is complete once its last phase-shifted
// merge (at n·period + lastPhase) has fired.
func (tr *serveTraining) completedRounds(t float64) int64 {
	lastPhase := float64(serveWorkers-1) * servePhaseStep
	n := int64((t - lastPhase) / servePeriod)
	if n < 0 {
		n = 0
	}
	if n > tr.iters {
		n = tr.iters
	}
	return n
}

// digest folds the full training state — every worker's stamped versions,
// the per-row freshness iterations, and every accumulated averaged row's
// exact bits — into one FNV-64 value. Two runs with equal digests merged
// the same gradients in the same effective order.
func (tr *serveTraining) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	units := tr.part.NumUnits()
	for w := 0; w < serveWorkers; w++ {
		for u := 0; u < units; u++ {
			put(uint64(tr.st.Versions.Get(w, u)))
			for _, x := range tr.st.Acc[w].Unit(u) {
				put(uint64(math.Float32bits(x)))
			}
		}
	}
	for u := 0; u < units; u++ {
		put(uint64(tr.st.RowIter[u]))
	}
	return h.Sum64()
}

// serveRun is one cell's measured outcome: the reported metrics, plus the
// sorted per-request latencies behind their quantiles and the training-
// state digest after the run drained (the non-perturbation test compares
// it against a train-only run's).
type serveRun struct {
	ServeCellReport
	latencies []float64
	digest    uint64
}

func (r *serveRun) quantile(p float64) float64 {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.latencies)-1))
	return r.latencies[i]
}

// runServeCell executes one cell: trainer plus publisher plus server plus
// closed-loop clients, all on one kernel. tr may be nil (untraced).
func runServeCell(cell serveCell, seconds float64, seed uint64, tracer obs.Tracer) (*serveRun, error) {
	k := simnet.NewKernel()
	var probe *obs.Probe
	if tracer != nil {
		probe = obs.NewProbe(tracer, nil, k.Now)
	}
	training, err := newServeTraining(k, seconds, seed, probe)
	if err != nil {
		return nil, err
	}
	pub := serve.NewPublisher(training.st, training.part, training.model.Params(), serveLR)
	pub.Probe = probe
	scratch := nn.NewClassifierMLP(6, []int{8}, 4, tensor.NewRNG(seed))
	srv := serve.NewServer(pub, scratch, 6, serve.Config{
		WindowSeconds: cell.window,
		MaxBatch:      cell.clients,
		Clock:         serve.KernelClock{K: k},
		Probe:         probe,
	})

	run := &serveRun{ServeCellReport: ServeCellReport{Clients: cell.clients,
		WindowSeconds: cell.window, StalenessBound: cell.bound, FreshnessLead: cell.lead}}
	var reqID int64
	loadEnd := seconds - 2*servePeriod // let the tail drain before training ends
	var fail error
	for c := 0; c < cell.clients; c++ {
		rng := tensor.NewRNG(seed*7919 + uint64(c)*53 + 1)
		var issue func()
		issue = func() {
			if fail != nil || k.Now() >= loadEnd {
				return
			}
			t0 := k.Now()
			expected := training.completedRounds(t0)
			minV := expected - cell.bound + cell.lead
			if minV < 0 {
				minV = 0
			}
			if minV > training.iters {
				minV = training.iters // never demand past the schedule's end
			}
			if pub.Version() < minV {
				run.ReadStalls++
			}
			reqID++
			input := make([]float32, 6)
			for i := range input {
				input[i] = float32(rng.Norm())
			}
			think := 0.02 + 0.08*rng.Float64()
			err := srv.Submit(serve.Request{ID: reqID, MinVersion: minV, Input: input}, func(rep serve.Reply) {
				lat := k.Now() - t0
				run.latencies = append(run.latencies, lat)
				if stale := expected - rep.Version; stale > run.MaxObservedStaleness {
					run.MaxObservedStaleness = stale
				}
				if rep.Version < minV && fail == nil {
					fail = fmt.Errorf("harness: serve %s: request %d served at version %d below its floor %d",
						cell.label(), rep.ID, rep.Version, minV)
				}
				k.After(think, issue)
			})
			if err != nil && fail == nil {
				fail = fmt.Errorf("harness: serve %s: %w", cell.label(), err)
			}
		}
		k.At(0.1+0.3*rng.Float64(), issue)
	}

	k.RunUntilIdle(20_000_000)
	if fail != nil {
		return nil, fail
	}
	if run.MaxObservedStaleness > cell.bound {
		return nil, fmt.Errorf("harness: serve %s: observed staleness %d exceeds bound %d",
			cell.label(), run.MaxObservedStaleness, cell.bound)
	}
	st := srv.Stats()
	if st.Parked != 0 {
		return nil, fmt.Errorf("harness: serve %s: %d requests still parked after the run drained",
			cell.label(), st.Parked)
	}
	if int64(len(run.latencies)) != st.Served {
		return nil, fmt.Errorf("harness: serve %s: %d replies for %d served requests",
			cell.label(), len(run.latencies), st.Served)
	}
	sort.Float64s(run.latencies)
	run.digest = training.digest()
	run.TrainRounds, run.Requests, run.Batches, run.Snapshots = training.iters, st.Served, st.Batches, st.Publishes
	run.ThroughputRPS = float64(st.Served) / seconds
	run.P50Seconds, run.P95Seconds, run.P99Seconds = run.quantile(0.50), run.quantile(0.95), run.quantile(0.99)
	run.MaxSeconds = run.quantile(1)
	return run, nil
}

// ServeCellReport is one serve sweep cell's measurements.
type ServeCellReport struct {
	Clients        int     `json:"clients"`
	WindowSeconds  float64 `json:"window_seconds"`
	StalenessBound int64   `json:"staleness_bound"`
	FreshnessLead  int64   `json:"freshness_lead,omitempty"`
	TrainRounds    int64   `json:"train_rounds"`
	Requests       int64   `json:"requests"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	P50Seconds     float64 `json:"p50_seconds"`
	P95Seconds     float64 `json:"p95_seconds"`
	P99Seconds     float64 `json:"p99_seconds"`
	MaxSeconds     float64 `json:"max_seconds"`
	Snapshots      int64   `json:"snapshots_published"`
	Batches        int64   `json:"forward_batches"`
	ReadStalls     int64   `json:"read_stalls"`
	// MaxObservedStaleness is the largest (expected − served) version gap
	// any request saw; the run fails if it ever exceeds StalenessBound.
	MaxObservedStaleness int64 `json:"max_observed_staleness"`
}

// serveSeed is a serve run's seed at scale seed s: 1 gives the recorded 11.
func serveSeed(seed uint64) uint64 { return 10 + seed }

// runServe runs the sweep once; the structured view has one entry per cell,
// labelled "c8-w0.10-b2" style, with the full serving metrics attached, and
// the text table is rendered from the same cell reports.
func runServe(s Scale) (*Report, error) {
	rep := &Report{
		Title:    "Inference tier: bounded-staleness serving over versioned snapshots",
		Paradigm: "synthetic", Env: "simnet", Metric: "p95 latency (s)",
	}
	seconds := s.VirtualSeconds / 7 // the per-cell budget
	var rows [][]string
	for _, cell := range serveCells() {
		run, err := runServeCell(cell, seconds, serveSeed(s.Seed), nil)
		if err != nil {
			return nil, err
		}
		c := &run.ServeCellReport
		rep.Systems = append(rep.Systems, SystemReport{
			Label: cell.label(), Strategy: "rog", Threshold: serveThreshold,
			Iterations: int(c.TrainRounds), FinalValue: c.P95Seconds, Serve: c,
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Clients),
			fmt.Sprintf("%.0f", c.WindowSeconds*1e3),
			fmt.Sprintf("%d", c.StalenessBound),
			fmt.Sprintf("%d", c.FreshnessLead),
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%.1f", c.ThroughputRPS),
			fmt.Sprintf("%.1f", c.P50Seconds*1e3),
			fmt.Sprintf("%.1f", c.P95Seconds*1e3),
			fmt.Sprintf("%.1f", c.P99Seconds*1e3),
			fmt.Sprintf("%d", c.Snapshots),
			fmt.Sprintf("%d", c.ReadStalls),
			fmt.Sprintf("%d/%d", c.MaxObservedStaleness, c.StalenessBound),
		})
	}
	var b strings.Builder
	b.WriteString("== Inference tier: bounded-staleness serving over versioned snapshots ==\n\n")
	b.WriteString(metrics.FormatTable(
		[]string{"clients", "window(ms)", "bound", "lead", "served", "req/s",
			"p50(ms)", "p95(ms)", "p99(ms)", "snapshots", "read stalls", "staleness max/bound"},
		rows,
	))
	fmt.Fprintf(&b, "\nevery request was answered from a snapshot within its staleness bound (%d training rounds per cell);\n",
		int64(seconds/servePeriod))
	b.WriteString("requests demanding unseen versions parked on the read gate and resumed on the satisfying publish\n")
	rep.Text = b.String()
	return rep, nil
}
