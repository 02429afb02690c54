// Package metrics collects what the paper's figures plot: per-iteration
// time composition (computation / communication / stall), and checkpoint
// series of training quality against iterations, wall-clock time and
// energy. It also renders the aligned text tables the benchmark harness
// prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Composition is the time breakdown of training (Fig. 1a/6a/7a/9e/9f):
// seconds spent computing, transmitting, and stalling.
type Composition struct {
	Compute float64
	Comm    float64
	Stall   float64
}

// Total returns the summed duration.
func (c Composition) Total() float64 { return c.Compute + c.Comm + c.Stall }

// Add accumulates another composition.
func (c *Composition) Add(o Composition) {
	c.Compute += o.Compute
	c.Comm += o.Comm
	c.Stall += o.Stall
}

// Scale returns the composition multiplied by f.
func (c Composition) Scale(f float64) Composition {
	return Composition{Compute: c.Compute * f, Comm: c.Comm * f, Stall: c.Stall * f}
}

// String renders the composition compactly.
func (c Composition) String() string {
	return fmt.Sprintf("compute %.2fs comm %.2fs stall %.2fs", c.Compute, c.Comm, c.Stall)
}

// CompositionRecorder averages compositions across iterations and workers.
type CompositionRecorder struct {
	sum Composition
	n   int
}

// Record adds one worker-iteration's composition.
func (r *CompositionRecorder) Record(c Composition) {
	r.sum.Add(c)
	r.n++
}

// Average returns the mean composition per recorded iteration (zero value
// if nothing was recorded).
func (r *CompositionRecorder) Average() Composition {
	if r.n == 0 {
		return Composition{}
	}
	return r.sum.Scale(1 / float64(r.n))
}

// Count returns the number of recorded worker-iterations.
func (r *CompositionRecorder) Count() int { return r.n }

// ChurnStats counts membership-churn events and their cost: how often
// workers dropped and returned, how much state a rejoin had to resync, and
// how long survivors stalled waiting on rows only a departed worker could
// have advanced (the deadlock the membership layer converts into bounded
// stall).
type ChurnStats struct {
	Disconnects       int     `json:"disconnects"`                  // workers detached (crash, connection loss, stall)
	Reconnects        int     `json:"reconnects"`                   // workers re-attached after a detach
	RowsResynced      int     `json:"rows_resynced"`                // rows replayed to rejoining workers
	DuplicatesDropped int     `json:"duplicates_dropped,omitempty"` // pushes re-sent after a server recovery and deduplicated
	DetachStall       float64 `json:"detach_stall_seconds"`         // seconds survivors spent blocked until a detach freed them
}

// String renders the counters compactly.
func (c ChurnStats) String() string {
	s := fmt.Sprintf("disconnects %d reconnects %d rows resynced %d detach-stall %.2fs",
		c.Disconnects, c.Reconnects, c.RowsResynced, c.DetachStall)
	if c.DuplicatesDropped > 0 {
		s += fmt.Sprintf(" duplicates dropped %d", c.DuplicatesDropped)
	}
	return s
}

// RecoveryStats summarizes server crash-recovery activity in a run: how
// many times the parameter server restarted from its checkpoint store,
// what the write-ahead log replays cost, and what was lost anyway (rows
// whose merged gradients fell in the torn tail past the last sync).
type RecoveryStats struct {
	Recoveries      int     `json:"recoveries"`       // server restarts served from the checkpoint store
	ReplayedRecords int     `json:"replayed_records"` // WAL records replayed across all recoveries
	ReplayedBytes   float64 `json:"replayed_bytes"`   // WAL bytes replayed
	SnapshotBytes   float64 `json:"snapshot_bytes"`   // snapshot bytes loaded
	RowsLost        int     `json:"rows_lost"`        // row versions re-stamped with zero gradient (lost to the crash)
	DowntimeSeconds float64 `json:"downtime_seconds"` // virtual seconds the server was unavailable
}

// Enabled reports whether any recovery happened.
func (r RecoveryStats) Enabled() bool { return r.Recoveries > 0 }

// String renders the counters compactly.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("recoveries %d replayed %d records (%.0f B) rows lost %d downtime %.2fs",
		r.Recoveries, r.ReplayedRecords, r.ReplayedBytes, r.RowsLost, r.DowntimeSeconds)
}

// LossStats counts what the packet-loss channel did to a run and what the
// selective-reliability protocol paid to survive it: best-effort rows lost
// and folded back into their sender's local accumulator (RSP counts them
// as never sent), reliable rows retransmitted until delivered, and the
// extra bytes those repeats put on the wire.
type LossStats struct {
	RowsLostFolded    int     `json:"rows_lost_folded"`   // best-effort rows lost, gradients folded back
	RowsRetransmitted int     `json:"rows_retransmitted"` // reliable rows sent again after loss
	RetransmitBytes   float64 `json:"retransmit_bytes"`   // wire bytes spent on retransmissions
}

// Enabled reports whether any loss activity was recorded.
func (l LossStats) Enabled() bool {
	return l.RowsLostFolded != 0 || l.RowsRetransmitted != 0 || l.RetransmitBytes != 0
}

// String renders the counters compactly.
func (l LossStats) String() string {
	return fmt.Sprintf("rows folded %d retransmitted %d retransmit-bytes %.0f",
		l.RowsLostFolded, l.RowsRetransmitted, l.RetransmitBytes)
}

// Point is one checkpoint: training quality at a moment of the run.
type Point struct {
	Iter   int     `json:"iter"`          // training iteration (per-worker count)
	Time   float64 `json:"time_seconds"`  // virtual wall-clock seconds
	Energy float64 `json:"energy_joules"` // cumulative joules across the team
	Value  float64 `json:"value"`         // accuracy (higher better) or error (lower better)
}

// Series is a named sequence of checkpoints, ordered by time.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a checkpoint; Time must be non-decreasing.
func (s *Series) Add(p Point) {
	if n := len(s.Points); n > 0 && p.Time < s.Points[n-1].Time {
		panic(fmt.Sprintf("metrics: series %q time went backwards (%v < %v)",
			s.Name, p.Time, s.Points[n-1].Time))
	}
	s.Points = append(s.Points, p)
}

// Last returns the final checkpoint (zero Point if empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// ValueAt returns the value of the last checkpoint at or before time t
// (step interpolation), or NaN when t precedes the first checkpoint.
// Points are time-sorted (Add enforces it), so this is a binary search;
// among duplicate times it picks the last, like the scan it replaced.
func (s *Series) ValueAt(t float64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].Time > t })
	if i == 0 {
		return math.NaN()
	}
	return s.Points[i-1].Value
}

// EnergyToReach returns the cumulative energy at the first checkpoint whose
// value reaches target (≥ target when increasing, ≤ when not). ok is false
// if the series never reaches it. This is Fig. 1d's "energy to reach the
// same accuracy" metric.
func (s *Series) EnergyToReach(target float64, increasing bool) (joules float64, ok bool) {
	for _, p := range s.Points {
		if (increasing && p.Value >= target) || (!increasing && p.Value <= target) {
			return p.Energy, true
		}
	}
	return 0, false
}

// TimeToReach is EnergyToReach for wall-clock time.
func (s *Series) TimeToReach(target float64, increasing bool) (seconds float64, ok bool) {
	for _, p := range s.Points {
		if (increasing && p.Value >= target) || (!increasing && p.Value <= target) {
			return p.Time, true
		}
	}
	return 0, false
}

// ValueAtIter returns the value at the last checkpoint with Iter ≤ iter
// (NaN if none) — the statistical-efficiency axis of Fig. 1b. Checkpoints
// are recorded in iteration order, so binary search applies here too.
func (s *Series) ValueAtIter(iter int) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].Iter > iter })
	if i == 0 {
		return math.NaN()
	}
	return s.Points[i-1].Value
}

// FormatTable renders an aligned text table with a header row.
func FormatTable(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
