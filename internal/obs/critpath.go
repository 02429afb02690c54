package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// CritPath is a streaming critical-path analyzer: fed a trace event stream
// (either live, as a Tracer, or post-hoc via CritPathFromReader), it
// decomposes each worker's end-to-end wall time into four causal segments
// per iteration:
//
//   - compute:  IterStart → PushPlanned (the gradient step; the plan is
//     built the instant compute finishes in every driver)
//   - comm:     the summed durations of the iteration's RowsSent and
//     Retransmit transmissions
//   - stall:    the summed durations of its StallEnd intervals (the
//     policy's gate — BSP's wait for its team included — and detach waits)
//   - merge:    the residual span − compute − comm − stall, clamped at
//     zero — the server-side window the worker's own events cannot see
//     (merge work, rows queued in an edge aggregator)
//
// Because merge is the residual, coverage — decomposed time over the
// worker's first-IterStart→last-IterEnd wall time — is exactly 1.0 when
// the trace is complete and iterations do not overlap; a value below that
// means events are missing, which is what the verify.sh critpath-smoke
// stage asserts against. The depth-1 worker loop overlaps one iteration's
// transmission with the next one's compute, so its per-iteration spans can
// double-count wall time and coverage legitimately exceeds 1.0.
//
// Stall attribution rides on the StallEnd blocker fields: the analyzer
// accumulates stalled seconds against each blocking (worker, unit) pair
// and feeds every stall duration into a quantile histogram.
//
// Events from negative workers (the edge-aggregator tier reports uplink
// flows as worker -(id+1)) are infrastructure: their transmission time is
// totalled separately, never charged to a robot's path.
type CritPath struct {
	mu sync.Mutex

	iters    map[critKey]*critIter
	workers  map[int]*critWorker
	blockers map[blockKey]*blockAgg
	open     map[stallOpenKey]int
	hist     *Histogram

	infraComm    float64
	unattributed int64
	errors       []string
}

type critKey struct {
	worker int
	iter   int64
}

type critIter struct {
	start   float64
	planned float64
	hasPlan bool
	comm    float64
	stall   float64
}

type critWorker struct {
	iters     int64
	wallStart float64
	wallEnd   float64
	started   bool
	compute   float64
	comm      float64
	stall     float64
	merge     float64
}

type blockKey struct {
	worker int
	unit   int
}

type blockAgg struct {
	seconds float64
	count   int64
}

type stallOpenKey struct {
	worker int
	cause  string
}

// NewCritPath builds an empty analyzer. Safe for concurrent Emit.
func NewCritPath() *CritPath {
	return &CritPath{
		iters:    make(map[critKey]*critIter),
		workers:  make(map[int]*critWorker),
		blockers: make(map[blockKey]*blockAgg),
		open:     make(map[stallOpenKey]int),
		hist:     NewHistogram(StallDurationBounds),
	}
}

// Emit implements Tracer.
func (c *CritPath) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Worker < 0 {
		// Infrastructure (aggregator uplinks, server-scoped records): its
		// wire time is reported but never charged to a robot's path.
		if e.Kind == KindRowsSent || e.Kind == KindRetransmit {
			c.infraComm += e.Seconds
		}
		return
	}
	switch e.Kind {
	case KindIterStart:
		c.iters[critKey{e.Worker, e.Iter}] = &critIter{start: e.Time}
		w := c.worker(e.Worker)
		if !w.started || e.Time < w.wallStart {
			w.wallStart = e.Time
			w.started = true
		}
	case KindPushPlanned:
		if it, ok := c.iters[critKey{e.Worker, e.Iter}]; ok && !it.hasPlan {
			it.planned = e.Time
			it.hasPlan = true
		}
	case KindRowsSent, KindRetransmit:
		if it, ok := c.iters[critKey{e.Worker, e.Iter}]; ok {
			it.comm += e.Seconds
		}
	case KindStallBegin:
		c.open[stallOpenKey{e.Worker, e.Cause}]++
	case KindStallEnd:
		k := stallOpenKey{e.Worker, e.Cause}
		if c.open[k] == 0 {
			c.errorf("worker %d: StallEnd(%s) without matching StallBegin at t=%.3f",
				e.Worker, e.Cause, e.Time)
		} else {
			c.open[k]--
		}
		if it, ok := c.iters[critKey{e.Worker, e.Iter}]; ok {
			it.stall += e.Seconds
		}
		c.hist.Observe(e.Seconds)
		bk := blockKey{e.BlockWorker, e.BlockUnit}
		if e.BlockWorker < 0 && e.BlockUnit < 0 {
			c.unattributed++
		}
		agg, ok := c.blockers[bk]
		if !ok {
			agg = &blockAgg{}
			c.blockers[bk] = agg
		}
		agg.seconds += e.Seconds
		agg.count++
	case KindIterEnd:
		key := critKey{e.Worker, e.Iter}
		it, ok := c.iters[key]
		if !ok {
			c.errorf("worker %d: IterEnd for iteration %d without IterStart at t=%.3f",
				e.Worker, e.Iter, e.Time)
			return
		}
		delete(c.iters, key)
		w := c.worker(e.Worker)
		w.iters++
		if e.Time > w.wallEnd {
			w.wallEnd = e.Time
		}
		span := e.Time - it.start
		compute := e.Compute // fallback: the event's own composition
		if it.hasPlan {
			compute = it.planned - it.start
		}
		merge := span - compute - it.comm - it.stall
		if merge < 0 {
			merge = 0
		}
		w.compute += compute
		w.comm += it.comm
		w.stall += it.stall
		w.merge += merge
	}
}

func (c *CritPath) worker(id int) *critWorker {
	w, ok := c.workers[id]
	if !ok {
		w = &critWorker{}
		c.workers[id] = w
	}
	return w
}

func (c *CritPath) errorf(format string, args ...any) {
	if len(c.errors) >= 64 {
		return
	}
	c.errors = append(c.errors, fmt.Sprintf(format, args...))
}

// WorkerPath is one worker's critical-path decomposition over its whole
// trace: wall time from first IterStart to last IterEnd and the four
// segment sums. Coverage is decomposed/wall.
type WorkerPath struct {
	Worker         int     `json:"worker"`
	Iters          int64   `json:"iters"`
	WallSeconds    float64 `json:"wall_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	StallSeconds   float64 `json:"stall_seconds"`
	MergeSeconds   float64 `json:"merge_seconds"`
	Coverage       float64 `json:"coverage"`
}

// BlockerRow is one blocking (worker, unit) pair's total attributed stall
// time. Worker and Unit are -1 for stalls with no concrete attribution;
// Unit alone is -1 when a detach (not a merge) released the gate.
type BlockerRow struct {
	Worker       int     `json:"worker"`
	Unit         int     `json:"unit"`
	StallSeconds float64 `json:"stall_seconds"`
	Stalls       int64   `json:"stalls"`
}

// CritReport is the analyzer's frozen output.
type CritReport struct {
	Workers  []WorkerPath `json:"workers"`
	Blockers []BlockerRow `json:"blockers"` // descending by stalled seconds

	// StallHist is the stall-duration histogram with interpolated
	// p50/p95/p99.
	StallHist HistSnapshot `json:"stall_hist"`

	// InfraCommSeconds is transmission time spent by non-worker sources
	// (the edge-aggregator uplink tier).
	InfraCommSeconds float64 `json:"infra_comm_seconds,omitempty"`

	// OpenStalls counts StallBegin intervals never closed; Unattributed
	// counts closed stalls whose blocker was unknown.
	OpenStalls   int   `json:"open_stalls"`
	Unattributed int64 `json:"unattributed_stalls"`

	Errors []string `json:"errors,omitempty"`
}

// Report freezes the analyzer. Workers ascend by id; blockers descend by
// attributed seconds (ties ascend by worker then unit, so output is
// deterministic).
func (c *CritPath) Report() *CritReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &CritReport{
		InfraCommSeconds: c.infraComm,
		Unattributed:     c.unattributed,
		Errors:           append([]string(nil), c.errors...),
	}
	for _, n := range c.open {
		rep.OpenStalls += n
	}
	for id, w := range c.workers {
		wp := WorkerPath{
			Worker: id, Iters: w.iters,
			WallSeconds:    w.wallEnd - w.wallStart,
			ComputeSeconds: w.compute, CommSeconds: w.comm,
			StallSeconds: w.stall, MergeSeconds: w.merge,
		}
		if wp.WallSeconds > 0 {
			wp.Coverage = (w.compute + w.comm + w.stall + w.merge) / wp.WallSeconds
		}
		rep.Workers = append(rep.Workers, wp)
	}
	sort.Slice(rep.Workers, func(i, j int) bool { return rep.Workers[i].Worker < rep.Workers[j].Worker })
	for k, agg := range c.blockers {
		rep.Blockers = append(rep.Blockers, BlockerRow{
			Worker: k.worker, Unit: k.unit, StallSeconds: agg.seconds, Stalls: agg.count,
		})
	}
	sort.Slice(rep.Blockers, func(i, j int) bool {
		a, b := rep.Blockers[i], rep.Blockers[j]
		if a.StallSeconds != b.StallSeconds {
			return a.StallSeconds > b.StallSeconds
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Unit < b.Unit
	})
	hs := HistSnapshot{
		Bounds: append([]float64(nil), c.hist.bounds...),
		Counts: make([]int64, len(c.hist.counts)),
		Sum:    c.hist.sum.Value(),
		Count:  c.hist.n.Load(),
	}
	for i := range c.hist.counts {
		hs.Counts[i] = c.hist.counts[i].Load()
	}
	hs.fillQuantiles()
	rep.StallHist = hs
	return rep
}

// Totals sums the four segments across workers.
func (r *CritReport) Totals() (compute, comm, stall, merge float64) {
	for _, w := range r.Workers {
		compute += w.ComputeSeconds
		comm += w.CommSeconds
		stall += w.StallSeconds
		merge += w.MergeSeconds
	}
	return
}

// MinCoverage returns the worst per-worker coverage (1 when no workers).
func (r *CritReport) MinCoverage() float64 {
	min := 1.0
	for i, w := range r.Workers {
		if i == 0 || w.Coverage < min {
			min = w.Coverage
		}
	}
	return min
}

// CritPathFromReader runs the analyzer over a stored JSONL trace.
func CritPathFromReader(r io.Reader) (*CritReport, error) {
	cp := NewCritPath()
	if err := ReadEvents(r, func(e Event) error {
		cp.Emit(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return cp.Report(), nil
}
