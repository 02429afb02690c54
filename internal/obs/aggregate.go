package obs

import (
	"fmt"
	"io"
	"sort"
)

// IterRow is the aggregated composition of one iteration number across
// workers: n IterEnd events averaged.
type IterRow struct {
	Iter    int64
	Count   int // worker-iterations aggregated into this row
	Compute float64
	Comm    float64
	Stall   float64
}

// UnitRow is per-row-partition staleness: merge count, mean and max lag.
type UnitRow struct {
	Unit    int
	Merges  int64
	LagSum  int64
	MaxLag  int64
	MeanLag float64
}

// Summary is everything Aggregate extracts from one trace.
type Summary struct {
	// Events counts records by kind name.
	Events map[string]int64

	// Iters counts IterEnd events; the sums divide by it to reproduce the
	// run's average composition (metrics.Result.Composition).
	Iters      int64
	ComputeSum float64
	CommSum    float64
	StallSum   float64

	// ByIter groups IterEnd events by iteration number, ascending.
	ByIter []IterRow

	// StallByCause sums StallEnd durations per cause.
	StallByCause map[string]float64

	// Transmission totals from RowsSent/PushPlanned.
	RowsPlanned  int64
	RowsDeferred int64
	RowsSent     int64
	RowsPulled   int64
	BytesPushed  float64
	BytesPulled  float64

	// Staleness from Merge events: per-unit rows and the overall lag
	// histogram (lag value → count).
	Units   []UnitRow
	LagHist map[int64]int64
	Merges  int64

	// Churn.
	Detaches    int64
	Reconnects  int64
	Resyncs     int64
	ResyncRows  int64
	ResyncBytes float64

	// Loss/retransmission totals from RowsLost/Retransmit events. Every
	// lost row is settled exactly one way: folded back into the sender's
	// local accumulator (best-effort) or retransmitted (reliable) — the
	// pairing check below enforces RowsLostRetransmit == RowsRetransmitted.
	RowsLostFolded    int64
	RowsLostRetrans   int64
	RowsRetransmitted int64
	RetransmitBytes   float64
	RetransmitSeconds float64

	// Serving totals from SnapshotPublish/Request*/ReadStall* events. Max
	// values track the empirical read-staleness and latency envelopes.
	SnapshotPublishes int64
	RequestsEnqueued  int64
	RequestsServed    int64
	ServeSeconds      float64 // summed request latency
	MaxServeSeconds   float64
	ReadStalls        int64
	ReadStallSeconds  float64
	MaxReadLag        int64 // largest demanded-floor shortfall at enqueue

	// Durability totals from CheckpointEnd/WALAppend/RecoveryReplay events.
	Checkpoints     int64
	CheckpointBytes float64
	WALAppends      int64
	WALBytes        float64
	Recoveries      int64
	ReplayedRecords int64

	// PairErrors lists structural violations: a StallEnd without an open
	// StallBegin on that worker, a Detach of an already-detached worker, a
	// Reconnect of an attached one, a CheckpointEnd without its Begin, or a
	// second PushPlanned for one (worker, iteration) — the pair that names
	// a push everywhere in the trace. Empty for a well-formed trace.
	PairErrors []string

	// OpenStalls counts StallBegin intervals never closed (a run may
	// legitimately halt mid-stall).
	OpenStalls int

	// OpenCheckpoints counts CheckpointBegin events never closed — at most
	// one for a run the crash fault killed mid-snapshot.
	OpenCheckpoints int

	// OpenReadStalls counts ReadStallBegin intervals never closed (requests
	// still parked on the read gate when the trace ended).
	OpenReadStalls int
}

// Composition returns the average per-iteration compute/comm/stall seconds
// — comparable to the run's metrics.Result.Composition.
func (s *Summary) Composition() (compute, comm, stall float64) {
	if s.Iters == 0 {
		return 0, 0, 0
	}
	n := float64(s.Iters)
	return s.ComputeSum / n, s.CommSum / n, s.StallSum / n
}

// Aggregate streams a JSONL trace into a Summary.
func Aggregate(r io.Reader) (*Summary, error) {
	s := &Summary{
		Events:       make(map[string]int64),
		StallByCause: make(map[string]float64),
		LagHist:      make(map[int64]int64),
	}
	byIter := make(map[int64]*IterRow)
	units := make(map[int]*UnitRow)
	// Stall pairing is keyed by (worker, cause), not worker alone: a worker
	// can legitimately nest stalls of different causes (a detach stall
	// opening inside a gate stall), and worker-keyed depth counting would
	// silently pair a StallEnd of one cause against a StallBegin of
	// another.
	type stallKey struct {
		worker int
		cause  string
	}
	stallDepth := make(map[stallKey]int)
	detached := make(map[int]bool)
	ckptDepth := 0
	// Read-stall pairing is keyed by request id (Seq): each request parks
	// on the read gate at most once, so a second Begin for the same id or
	// an End without its Begin is structural corruption.
	readStalled := make(map[int64]bool)
	// A worker plans each iteration's push once (a skip included), and its
	// iteration numbers never repeat, so (worker, iteration) names a plan.
	type push struct {
		worker int
		iter   int64
	}
	planned := make(map[push]bool)

	err := ReadEvents(r, func(e Event) error {
		s.Events[e.Kind.String()]++
		switch e.Kind {
		case KindIterEnd:
			s.Iters++
			s.ComputeSum += e.Compute
			s.CommSum += e.Comm
			s.StallSum += e.Stall
			row, ok := byIter[e.Iter]
			if !ok {
				row = &IterRow{Iter: e.Iter}
				byIter[e.Iter] = row
			}
			row.Count++
			row.Compute += e.Compute
			row.Comm += e.Comm
			row.Stall += e.Stall
		case KindPushPlanned:
			k := push{e.Worker, e.Iter}
			if planned[k] {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"worker %d: second PushPlanned for iteration %d at t=%.3f", e.Worker, e.Iter, e.Time))
			}
			planned[k] = true
			s.RowsPlanned += int64(e.Units)
			s.RowsDeferred += int64(e.Deferred)
		case KindRowsSent:
			if e.Dir == DirPull {
				s.RowsPulled += int64(e.Units)
				s.BytesPulled += e.Bytes
			} else {
				s.RowsSent += int64(e.Units)
				s.BytesPushed += e.Bytes
			}
		case KindStallBegin:
			stallDepth[stallKey{e.Worker, e.Cause}]++
		case KindStallEnd:
			k := stallKey{e.Worker, e.Cause}
			if stallDepth[k] == 0 {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"worker %d: StallEnd(%s) without matching StallBegin at t=%.3f",
					e.Worker, e.Cause, e.Time))
				break
			}
			stallDepth[k]--
			s.StallByCause[e.Cause] += e.Seconds
		case KindMerge:
			s.Merges++
			s.LagHist[e.Lag]++
			u, ok := units[e.Unit]
			if !ok {
				u = &UnitRow{Unit: e.Unit}
				units[e.Unit] = u
			}
			u.Merges++
			u.LagSum += e.Lag
			if e.Lag > u.MaxLag {
				u.MaxLag = e.Lag
			}
		case KindDetach:
			if detached[e.Worker] {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"worker %d: Detach while already detached at t=%.3f", e.Worker, e.Time))
			}
			detached[e.Worker] = true
			s.Detaches++
		case KindReconnect:
			if !detached[e.Worker] {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"worker %d: Reconnect without a prior Detach at t=%.3f", e.Worker, e.Time))
			}
			detached[e.Worker] = false
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
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"worker %d: RowsLost with unknown cause %q at t=%.3f", e.Worker, e.Cause, e.Time))
			}
		case KindRetransmit:
			s.RowsRetransmitted += int64(e.Units)
			s.RetransmitBytes += e.Bytes
			s.RetransmitSeconds += e.Seconds
		case KindCheckpointBegin:
			ckptDepth++
		case KindCheckpointEnd:
			if ckptDepth == 0 {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"CheckpointEnd seq %d without CheckpointBegin at t=%.3f", e.Version, e.Time))
				break
			}
			ckptDepth--
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
			if e.Lag > s.MaxReadLag {
				s.MaxReadLag = e.Lag
			}
		case KindRequestServe:
			s.RequestsServed++
			s.ServeSeconds += e.Seconds
			if e.Seconds > s.MaxServeSeconds {
				s.MaxServeSeconds = e.Seconds
			}
		case KindReadStallBegin:
			if readStalled[e.Seq] {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"request %d: ReadStallBegin while already parked at t=%.3f", e.Seq, e.Time))
				break
			}
			readStalled[e.Seq] = true
			s.ReadStalls++
		case KindReadStallEnd:
			if !readStalled[e.Seq] {
				s.PairErrors = append(s.PairErrors, fmt.Sprintf(
					"request %d: ReadStallEnd without matching ReadStallBegin at t=%.3f", e.Seq, e.Time))
				break
			}
			delete(readStalled, e.Seq)
			s.ReadStallSeconds += e.Seconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, d := range stallDepth {
		s.OpenStalls += d
	}
	s.OpenCheckpoints = ckptDepth
	s.OpenReadStalls = len(readStalled)
	// Every best-effort gap must be folded back and every reliable loss
	// retransmitted: a RowsLost(retransmit) count that diverges from the
	// Retransmit unit total means a row was dropped and never settled.
	if s.RowsLostRetrans != s.RowsRetransmitted {
		s.PairErrors = append(s.PairErrors, fmt.Sprintf(
			"loss accounting: %d rows lost to retransmission but %d retransmitted",
			s.RowsLostRetrans, s.RowsRetransmitted))
	}
	s.ByIter = make([]IterRow, 0, len(byIter))
	for _, row := range byIter {
		r := *row
		if r.Count > 0 {
			n := float64(r.Count)
			r.Compute /= n
			r.Comm /= n
			r.Stall /= n
		}
		s.ByIter = append(s.ByIter, r)
	}
	sort.Slice(s.ByIter, func(i, j int) bool { return s.ByIter[i].Iter < s.ByIter[j].Iter })
	s.Units = make([]UnitRow, 0, len(units))
	for _, u := range units {
		r := *u
		if r.Merges > 0 {
			r.MeanLag = float64(r.LagSum) / float64(r.Merges)
		}
		s.Units = append(s.Units, r)
	}
	sort.Slice(s.Units, func(i, j int) bool { return s.Units[i].Unit < s.Units[j].Unit })
	return s, nil
}
