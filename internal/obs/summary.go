package obs

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

// Summary is the stream-totals view of a CritPath: everything rogtrace
// prints about one trace.
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

	// PairErrors lists the structural errors (see CritPath for the rules),
	// the same list as CritReport.Errors. Empty for a well-formed trace.
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
