package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
)

// CritPath is the trace analyser: fed an event stream (live, as a Tracer,
// or from a stored JSONL trace via ReadTrace), it checks that the stream's
// events pair up and accounts them once, for two views of the same pass.
// Summary totals the stream (composition, transmission, staleness, stall
// causes, churn, loss, durability, serving); Report decomposes each
// worker's end-to-end wall time into four causal segments per iteration:
//
//   - compute:  IterStart → PushPlanned (the gradient step; the plan is
//     built the instant compute finishes in every driver)
//   - comm:     the summed durations of the iteration's RowsSent
//     transmissions, whose seconds already include any retransmission
//     rounds (the Retransmit events' own seconds are totalled in Summary
//     only)
//   - stall:    the summed durations of its StallEnd intervals (the
//     policy's gate — BSP's wait for its team included — and detach waits)
//   - merge:    the residual span − compute − comm − stall, clamped at
//     zero — the server-side window the worker's own events cannot see
//     (merge work, rows queued in an edge aggregator)
//
// Because merge is the residual, coverage — decomposed time over the
// worker's first-IterStart→last-IterEnd wall time — is exactly 1.0 when
// the trace is complete and iterations do not overlap; a value below that
// means events are missing, which is what the verify.sh trace-smoke stage
// asserts against. The depth-1 worker loop overlaps one iteration's
// transmission with the next one's compute, so its per-iteration spans can
// double-count wall time and coverage legitimately exceeds 1.0.
//
// One rule set checks the pairing of every event, negative workers
// included: a StallEnd needs an open StallBegin of its (worker, cause), a
// Detach an attached worker and a Reconnect a detached one, a
// CheckpointEnd its Begin, a ReadStallBegin a request not already parked
// and a ReadStallEnd one that is, an IterEnd its IterStart; a (worker,
// iteration) plans one push, a RowsLost names a known cause, and the rows
// lost to retransmission equal the rows retransmitted. An event that
// breaks a rule is reported and otherwise ignored: it feeds no total.
//
// Stall attribution rides on the StallEnd blocker fields: the analyser
// accumulates stalled seconds against each blocking (worker, unit) pair
// and feeds every stall duration into a quantile histogram.
//
// Events from negative workers (the edge-aggregator tier reports uplink
// flows as worker -(id+1), the server its own outage as worker -1) are
// infrastructure: their transmission time is totalled separately, never
// charged to a robot's path.
type CritPath struct {
	mu sync.Mutex

	// Pairing state.
	iters       map[critKey]critIter // open worker-iterations
	planned     map[critKey]struct{}
	open        map[stallOpenKey]int
	detached    map[int]bool
	readStalled map[int64]bool
	ckptDepth   int
	errors      []string
	dropped     int // errors past the cap

	// Critical-path accounting (workers ≥ 0).
	workers      map[int]*critWorker
	blockers     map[blockKey]blockAgg
	hist         *Histogram
	infraComm    float64
	unattributed int64

	// Stream totals: the scalars accumulate in s, the rest becomes
	// Summary's maps and tables when it is built.
	s            Summary
	kinds        [256]int64 // by Kind
	byIter       map[int64]IterRow
	units        map[int]*UnitRow
	stallByCause map[string]float64
	lagHist      map[int64]int64
}

// maxErrors caps the listed structural errors; the rest are counted.
const maxErrors = 64

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

// NewCritPath builds an empty analyser. Safe for concurrent Emit.
func NewCritPath() *CritPath {
	return &CritPath{
		iters:        make(map[critKey]critIter),
		planned:      make(map[critKey]struct{}),
		open:         make(map[stallOpenKey]int),
		detached:     make(map[int]bool),
		readStalled:  make(map[int64]bool),
		workers:      make(map[int]*critWorker),
		blockers:     make(map[blockKey]blockAgg),
		hist:         NewHistogram(StallDurationBounds),
		byIter:       make(map[int64]IterRow),
		units:        make(map[int]*UnitRow),
		stallByCause: make(map[string]float64),
		lagHist:      make(map[int64]int64),
	}
}

// ReadTrace runs a fresh analyser over a stored JSONL trace.
func ReadTrace(r io.Reader) (*CritPath, error) {
	c := NewCritPath()
	if err := ReadEvents(r, func(e Event) error {
		c.Emit(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// Emit implements Tracer.
func (c *CritPath) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kinds[e.Kind]++
	s, key := &c.s, critKey{e.Worker, e.Iter}
	switch e.Kind {
	case KindIterStart:
		c.iters[key] = critIter{start: e.Time}
		if e.Worker >= 0 {
			w := c.worker(e.Worker)
			if !w.started || e.Time < w.wallStart {
				w.wallStart = e.Time
				w.started = true
			}
		}
	case KindIterEnd:
		it, ok := c.iters[key]
		if !ok {
			c.errorf("worker %d: IterEnd for iteration %d without IterStart at t=%.3f",
				e.Worker, e.Iter, e.Time)
			return
		}
		delete(c.iters, key)
		s.Iters++
		s.ComputeSum += e.Compute
		s.CommSum += e.Comm
		s.StallSum += e.Stall
		row := c.byIter[e.Iter]
		row.Iter = e.Iter
		row.Count++
		row.Compute += e.Compute
		row.Comm += e.Comm
		row.Stall += e.Stall
		c.byIter[e.Iter] = row
		if e.Worker >= 0 {
			c.finishIter(e, it)
		}
	case KindPushPlanned:
		if _, dup := c.planned[key]; dup {
			c.errorf("worker %d: second PushPlanned for iteration %d at t=%.3f", e.Worker, e.Iter, e.Time)
			return
		}
		c.planned[key] = struct{}{}
		s.RowsPlanned += int64(e.Units)
		s.RowsDeferred += int64(e.Deferred)
		if it, ok := c.iters[key]; ok {
			it.planned, it.hasPlan = e.Time, true
			c.iters[key] = it
		}
	case KindRowsSent:
		if e.Dir == DirPull {
			s.RowsPulled += int64(e.Units)
			s.BytesPulled += e.Bytes
		} else {
			s.RowsSent += int64(e.Units)
			s.BytesPushed += e.Bytes
		}
		if e.Worker < 0 {
			c.infraComm += e.Seconds
		} else if it, ok := c.iters[key]; ok {
			it.comm += e.Seconds
			c.iters[key] = it
		}
	case KindStallBegin:
		c.open[stallOpenKey{e.Worker, e.Cause}]++
	case KindStallEnd:
		k := stallOpenKey{e.Worker, e.Cause}
		if c.open[k] == 0 {
			c.errorf("worker %d: StallEnd(%s) without matching StallBegin at t=%.3f",
				e.Worker, e.Cause, e.Time)
			return
		}
		c.open[k]--
		c.stallByCause[e.Cause] += e.Seconds
		if e.Worker >= 0 {
			c.attributeStall(e, key)
		}
	case KindMerge:
		s.Merges++
		c.lagHist[e.Lag]++
		u := c.units[e.Unit]
		if u == nil {
			u = &UnitRow{Unit: e.Unit}
			c.units[e.Unit] = u
		}
		u.Merges++
		u.LagSum += e.Lag
		u.MaxLag = max(u.MaxLag, e.Lag)
	case KindDetach:
		if c.detached[e.Worker] {
			c.errorf("worker %d: Detach while already detached at t=%.3f", e.Worker, e.Time)
			return
		}
		c.detached[e.Worker] = true
		s.Detaches++
	case KindReconnect:
		if !c.detached[e.Worker] {
			c.errorf("worker %d: Reconnect without a prior Detach at t=%.3f", e.Worker, e.Time)
			return
		}
		c.detached[e.Worker] = false
		s.Reconnects++
	case KindResync:
		s.Resyncs++
		s.ResyncRows += int64(e.Units)
		s.ResyncBytes += e.Bytes
	case KindRowsLost:
		switch e.Cause {
		case "fold":
			s.RowsLostFolded += int64(e.Units)
		case "retransmit":
			s.RowsLostRetrans += int64(e.Units)
		default:
			c.errorf("worker %d: RowsLost with unknown cause %q at t=%.3f", e.Worker, e.Cause, e.Time)
		}
	case KindRetransmit:
		s.RowsRetransmitted += int64(e.Units)
		s.RetransmitBytes += e.Bytes
		s.RetransmitSeconds += e.Seconds
	case KindCheckpointBegin:
		c.ckptDepth++
	case KindCheckpointEnd:
		if c.ckptDepth == 0 {
			c.errorf("CheckpointEnd seq %d without CheckpointBegin at t=%.3f", e.Version, e.Time)
			return
		}
		c.ckptDepth--
		s.Checkpoints++
		s.CheckpointBytes += e.Bytes
	case KindWALAppend:
		s.WALAppends++
		s.WALBytes += e.Bytes
	case KindRecoveryReplay:
		s.Recoveries++
		s.ReplayedRecords += int64(e.Units)
	case KindSnapshotPublish:
		s.SnapshotPublishes++
	case KindRequestEnqueue:
		s.RequestsEnqueued++
		s.MaxReadLag = max(s.MaxReadLag, e.Lag)
	case KindRequestServe:
		s.RequestsServed++
		s.ServeSeconds += e.Seconds
		s.MaxServeSeconds = max(s.MaxServeSeconds, e.Seconds)
	case KindReadStallBegin:
		// Keyed by request id: each request parks on the read gate at most
		// once.
		if c.readStalled[e.Seq] {
			c.errorf("request %d: ReadStallBegin while already parked at t=%.3f", e.Seq, e.Time)
			return
		}
		c.readStalled[e.Seq] = true
		s.ReadStalls++
	case KindReadStallEnd:
		if !c.readStalled[e.Seq] {
			c.errorf("request %d: ReadStallEnd without matching ReadStallBegin at t=%.3f", e.Seq, e.Time)
			return
		}
		delete(c.readStalled, e.Seq)
		s.ReadStallSeconds += e.Seconds
	}
}

// finishIter charges one closed iteration of worker e.Worker to its path.
func (c *CritPath) finishIter(e Event, it critIter) {
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

// attributeStall charges one closed stall to its iteration, the duration
// histogram and the (worker, unit) pair whose merge released it.
func (c *CritPath) attributeStall(e Event, key critKey) {
	if it, ok := c.iters[key]; ok {
		it.stall += e.Seconds
		c.iters[key] = it
	}
	c.hist.Observe(e.Seconds)
	if e.BlockWorker < 0 && e.BlockUnit < 0 {
		c.unattributed++
	}
	bk := blockKey{e.BlockWorker, e.BlockUnit}
	agg := c.blockers[bk]
	agg.seconds += e.Seconds
	agg.count++
	c.blockers[bk] = agg
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
	if len(c.errors) >= maxErrors {
		c.dropped++
		return
	}
	c.errors = append(c.errors, fmt.Sprintf(format, args...))
}

// errorList is the structural errors both views report: the listed ones,
// how many went unlisted, and the end-of-stream loss accounting — every
// reliable loss must be retransmitted, so a RowsLost(retransmit) count
// that diverges from the Retransmit unit total means a row was dropped
// and never settled. Nil for a well-formed trace.
func (c *CritPath) errorList() []string {
	errs := append([]string(nil), c.errors...)
	if c.dropped > 0 {
		errs = append(errs, fmt.Sprintf("%d more structural errors not listed", c.dropped))
	}
	if c.s.RowsLostRetrans != c.s.RowsRetransmitted {
		errs = append(errs, fmt.Sprintf("loss accounting: %d rows lost to retransmission but %d retransmitted",
			c.s.RowsLostRetrans, c.s.RowsRetransmitted))
	}
	return errs
}

func (c *CritPath) openStalls() int {
	n := 0
	for _, d := range c.open {
		n += d
	}
	return n
}

// Summary returns the stream-totals view of everything emitted so far.
func (c *CritPath) Summary() *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	s.Events = make(map[string]int64)
	for k, n := range c.kinds {
		if n > 0 {
			s.Events[Kind(k).String()] += n
		}
	}
	s.StallByCause = maps.Clone(c.stallByCause)
	s.LagHist = maps.Clone(c.lagHist)
	s.ByIter = make([]IterRow, 0, len(c.byIter))
	for _, r := range c.byIter {
		n := float64(r.Count)
		r.Compute /= n
		r.Comm /= n
		r.Stall /= n
		s.ByIter = append(s.ByIter, r)
	}
	sort.Slice(s.ByIter, func(i, j int) bool { return s.ByIter[i].Iter < s.ByIter[j].Iter })
	s.Units = make([]UnitRow, 0, len(c.units))
	for _, u := range c.units {
		r := *u
		r.MeanLag = float64(r.LagSum) / float64(r.Merges)
		s.Units = append(s.Units, r)
	}
	sort.Slice(s.Units, func(i, j int) bool { return s.Units[i].Unit < s.Units[j].Unit })
	s.PairErrors = c.errorList()
	s.OpenStalls = c.openStalls()
	s.OpenCheckpoints = c.ckptDepth
	s.OpenReadStalls = len(c.readStalled)
	return &s
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

// CritReport is the analyser's critical-path view.
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

	// Errors is the structural errors, the same list as
	// Summary.PairErrors.
	Errors []string `json:"errors,omitempty"`
}

// Report returns the critical-path view. Workers ascend by id; blockers
// descend by attributed seconds (ties ascend by worker then unit, so
// output is deterministic).
func (c *CritPath) Report() *CritReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &CritReport{
		StallHist:        c.hist.snapshot(),
		InfraCommSeconds: c.infraComm,
		OpenStalls:       c.openStalls(),
		Unattributed:     c.unattributed,
		Errors:           c.errorList(),
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
