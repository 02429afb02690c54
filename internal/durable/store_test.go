package durable

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

const testThreshold = 4

// testShape builds the small real run shape every durable test shares: a
// classifier MLP partitioned by rows under the paper's policy.
func testShape(t testing.TB, workers int) (engine.Policy, *rowsync.Partition) {
	t.Helper()
	proto := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(1))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	pol, err := engine.New("rog", engine.Params{Workers: workers, Threshold: testThreshold, NumUnits: part.NumUnits()})
	if err != nil {
		t.Fatal(err)
	}
	return pol, part
}

func newTestState(t testing.TB, workers int) (*engine.State, *rowsync.Partition) {
	t.Helper()
	pol, part := testShape(t, workers)
	return engine.NewStateSharded(pol, part, workers, 1.0, 1), part
}

// op is one scripted state transition, applied with State.Apply. Each op
// journals exactly one WAL record when applied to a store-attached state
// (the generator arranges that no op is a dedup or membership no-op).
type op = engine.Transition

// recLen is the WAL footprint the op's single record will take.
func recLen(o op) int {
	return recordOf(o).encodedLen()
}

// genOps scripts n transitions from seed. It applies each op to a scratch
// state as it generates, so membership choices and staleness clamping see
// exactly the state a replay will see: merges keep every active worker
// within the RSP threshold, detaches only hit attached workers, attaches
// only detached ones.
func genOps(t testing.TB, seed uint64, n, workers int) []op {
	t.Helper()
	scratch, part := newTestState(t, workers)
	units := part.NumUnits()
	rng := seed
	mkVals := func(u int) []float32 {
		vals := make([]float32, part.Unit(u).Len)
		for i := range vals {
			vals[i] = float32(int(splitmix64(&rng)%17)-8) / 4
		}
		return vals
	}
	ops := make([]op, 0, n)
	emit := func(o op) {
		if !scratch.Apply(o) {
			t.Fatalf("generated op %+v does not fit the run shape", o)
		}
		ops = append(ops, o)
	}
	for len(ops) < n {
		w := int(splitmix64(&rng) % uint64(workers))
		u := int(splitmix64(&rng) % uint64(units))
		switch r := splitmix64(&rng) % 100; {
		case r < 60:
			// Merge the next iteration of (w, u); if that would breach the
			// staleness bound, advance the row pinning the minimum instead.
			iter := scratch.Versions.Get(w, u) + 1
			if scratch.Versions.IsActive(w) && iter-scratch.Versions.Min() >= testThreshold {
				w, u = minRow(scratch, workers, units)
				iter = scratch.Versions.Get(w, u) + 1
			}
			emit(op{Kind: engine.KindMerge, Worker: w, Unit: u, Iter: iter, Vals: mkVals(u)})
		case r < 70:
			emit(op{Kind: engine.KindDrain, Worker: w, Unit: u})
		case r < 80:
			emit(op{Kind: engine.KindRestore, Worker: w, Unit: u, Vals: mkVals(u)})
		case r < 85:
			// Detach an attached worker, but never the last one (the frozen
			// minimum would make later merges unclampable).
			if scratch.Versions.IsActive(w) && scratch.Versions.ActiveWorkers() > 1 {
				emit(op{Kind: engine.KindDetach, Worker: w})
			}
		case r < 90:
			if !scratch.Versions.IsActive(w) {
				emit(op{Kind: engine.KindAttach, Worker: w})
			}
		case r < 95:
			emit(op{Kind: engine.KindObserve, Worker: w, Aux: 0.05 + float64(splitmix64(&rng)%100)/250})
		default:
			emit(op{Kind: engine.KindLoss, Worker: int(splitmix64(&rng) % 5), Unit: int(splitmix64(&rng) % 3),
				Aux: float64(splitmix64(&rng) % 4096)})
		}
	}
	return ops
}

// minRow returns the (worker, unit) of an active worker pinning the
// version minimum (lowest indices on ties).
func minRow(s *engine.State, workers, units int) (int, int) {
	bw, bu, best := 0, 0, int64(-1)
	for w := 0; w < workers; w++ {
		if !s.Versions.IsActive(w) {
			continue
		}
		for u := 0; u < units; u++ {
			if v := s.Versions.Get(w, u); best == -1 || v < best {
				bw, bu, best = w, u, v
			}
		}
	}
	return bw, bu
}

// refState rebuilds the state a fresh run reaches after ops[:m].
func refState(t testing.TB, workers int, ops []op, m int) *engine.State {
	t.Helper()
	s, _ := newTestState(t, workers)
	for _, o := range ops[:m] {
		s.Apply(o)
	}
	return s
}

// diffStates reports the first difference between two states ("" if
// equal). Gradient copies are compared bitwise: recovery promises the
// exact pre-crash state, not an approximation.
func diffStates(a, b *engine.State, part *rowsync.Partition) string {
	workers, units := a.Versions.Workers(), a.Versions.Units()
	if b.Versions.Workers() != workers || b.Versions.Units() != units {
		return "shape differs"
	}
	if a.Versions.Min() != b.Versions.Min() {
		return fmt.Sprintf("min %d vs %d", a.Versions.Min(), b.Versions.Min())
	}
	if a.Versions.ActiveWorkers() != b.Versions.ActiveWorkers() {
		return fmt.Sprintf("active %d vs %d", a.Versions.ActiveWorkers(), b.Versions.ActiveWorkers())
	}
	for w := 0; w < workers; w++ {
		if a.Versions.IsActive(w) != b.Versions.IsActive(w) {
			return fmt.Sprintf("worker %d activity differs", w)
		}
		if a.Tracker.Report(w) != b.Tracker.Report(w) {
			return fmt.Sprintf("worker %d tracker %v vs %v", w, a.Tracker.Report(w), b.Tracker.Report(w))
		}
		for u := 0; u < units; u++ {
			if a.Versions.Get(w, u) != b.Versions.Get(w, u) {
				return fmt.Sprintf("version[%d][%d] %d vs %d", w, u, a.Versions.Get(w, u), b.Versions.Get(w, u))
			}
			av, bv := a.Acc[w].Unit(u), b.Acc[w].Unit(u)
			for i := range av {
				if av[i] != bv[i] {
					return fmt.Sprintf("acc[%d][%d][%d] %v vs %v", w, u, i, av[i], bv[i])
				}
			}
		}
	}
	for u := 0; u < units; u++ {
		if a.RowIter[u] != b.RowIter[u] {
			return fmt.Sprintf("rowIter[%d] %d vs %d", u, a.RowIter[u], b.RowIter[u])
		}
	}
	if a.Churn != b.Churn {
		return fmt.Sprintf("churn %+v vs %+v", a.Churn, b.Churn)
	}
	if a.Loss != b.Loss {
		return fmt.Sprintf("loss %+v vs %+v", a.Loss, b.Loss)
	}
	_ = part
	return ""
}

// TestStoreRoundtripAndEpoch drives the full lifecycle without a crash:
// Begin, journaled ops, Checkpoint, more ops, then Recover — the rebuilt
// state must equal the live one exactly, the payload must round-trip, and
// each recovery must advance the epoch.
func TestStoreRoundtripAndEpoch(t *testing.T) {
	const workers = 3
	pol, part := testShape(t, workers)
	ops := genOps(t, 11, 60, workers)
	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, []byte("boot")); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[:25] {
		live.Apply(o)
	}
	if err := st.Checkpoint(live, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[25:] {
		live.Apply(o)
	}

	rec, info, err := st.Recover(pol, part, workers, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffStates(rec, refState(t, workers, ops, len(ops)), part); d != "" {
		t.Fatalf("recovered state differs from live: %s", d)
	}
	if info.Epoch != 1 || st.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d, want 1", info.Epoch, st.Epoch())
	}
	if string(info.Payload) != "mid" {
		t.Fatalf("payload = %q, want the checkpointed one", info.Payload)
	}
	if info.ReplayedRecords != len(ops)-25 {
		t.Fatalf("replayed %d records, want %d", info.ReplayedRecords, len(ops)-25)
	}

	// Second recovery (no new ops): epoch keeps climbing, state is stable.
	rec2, info2, err := st.Recover(pol, part, workers, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Epoch != 2 {
		t.Fatalf("second epoch = %d, want 2", info2.Epoch)
	}
	if d := diffStates(rec2, rec, part); d != "" {
		t.Fatalf("idempotent recovery drifted: %s", d)
	}
}

// TestCheckpointRotationRetiresOldPair checks the snap/wal pair rotates:
// after a checkpoint the previous pair is gone and the new one is live.
func TestCheckpointRotationRetiresOldPair(t *testing.T) {
	const workers = 2
	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	if fs.Size("ckpt/snap-00000000") < 0 || fs.Size("ckpt/wal-00000000") < 0 {
		t.Fatal("Begin did not publish pair 0")
	}
	if err := st.Checkpoint(live, nil); err != nil {
		t.Fatal(err)
	}
	if fs.Size("ckpt/snap-00000000") >= 0 || fs.Size("ckpt/wal-00000000") >= 0 {
		t.Fatal("checkpoint left the retired pair 0 behind")
	}
	if fs.Size("ckpt/snap-00000001") < 0 || fs.Size("ckpt/wal-00000001") < 0 {
		t.Fatal("checkpoint did not publish pair 1")
	}
}

// TestBeginRefusesExistingState: a directory with checkpoints demands an
// explicit Recover (or cleanup), never a silent overwrite.
func TestBeginRefusesExistingState(t *testing.T) {
	const workers = 2
	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.HasState() {
		t.Fatal("reopened store does not see the checkpoint")
	}
	other, _ := newTestState(t, workers)
	if err := st2.Begin(other, nil); err == nil {
		t.Fatal("Begin overwrote an existing checkpoint")
	}
}

// TestRecoverIgnoresInvalidNewerSnapshot: recovery must fall back past a
// corrupt higher-sequence snapshot file to the newest valid pair.
func TestRecoverIgnoresInvalidNewerSnapshot(t *testing.T) {
	const workers = 3
	pol, part := testShape(t, workers)
	ops := genOps(t, 5, 30, workers)
	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		live.Apply(o)
	}
	// A garbage file squatting on a newer sequence (external corruption —
	// the store itself never publishes a torn snapshot).
	f, err := fs.Create("ckpt/snap-00000009")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	rec, _, err := st.Recover(pol, part, workers, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffStates(rec, refState(t, workers, ops, len(ops)), part); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
}

// TestJournalGenerationGuard: the journal observer registered before a
// crash (a ghost handler of the dead server still drives that state) must
// not contaminate the recovered incarnation's WAL.
func TestJournalGenerationGuard(t *testing.T) {
	const workers = 2
	pol, part := testShape(t, workers)
	ops := genOps(t, 7, 10, workers)
	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		live.Apply(o)
	}
	st.Crash()
	rec, _, err := st.Recover(pol, part, workers, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	walName := fmt.Sprintf("ckpt/wal-%08d", 1) // anchor pair after recovery
	before := fs.Size(walName)
	if before < 0 {
		t.Fatalf("anchor WAL missing; files: %v", fsNames(t, fs))
	}
	// The ghost: the pre-crash state still carries the old-generation
	// observer. A drain always journals, so only the generation guard can
	// drop it.
	drain := op{Kind: engine.KindDrain}
	live.Apply(drain)
	if got := fs.Size(walName); got != before {
		t.Fatalf("ghost journal append reached the new WAL (%d -> %d bytes)", before, got)
	}
	// The recovered incarnation's appends do land.
	rec.Apply(drain)
	if got := fs.Size(walName); got <= before {
		t.Fatal("recovered state's journal append was dropped")
	}
}

func fsNames(t *testing.T, fs *MemFS) []string {
	t.Helper()
	names, err := fs.List("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreProbeCountersAndPairing wires a registry-backed probe plus a
// JSONL tracer through the full lifecycle and checks both the counters
// and the aggregate-level pairing invariants (every CheckpointBegin
// closed, recovery counted).
func TestStoreProbeCountersAndPairing(t *testing.T) {
	const workers = 3
	pol, part := testShape(t, workers)
	ops := genOps(t, 3, 40, workers)
	var trace bytes.Buffer
	tracer := obs.NewJSONLTracer(&trace)
	reg := obs.NewRegistry()
	probe := obs.NewProbe(tracer, reg, nil)

	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	st.Probe = probe
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[:20] {
		live.Apply(o)
	}
	if err := st.Checkpoint(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[20:] {
		live.Apply(o)
	}
	st.Crash()
	if _, _, err := st.Recover(pol, part, workers, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// Begin + mid checkpoint + recovery anchor = 3 snapshots.
	if snap.Counters["checkpoints"] != 3 {
		t.Fatalf("checkpoints = %d, want 3", snap.Counters["checkpoints"])
	}
	if snap.Counters["wal_appends"] != int64(len(ops)) {
		t.Fatalf("wal_appends = %d, want %d (one per op)", snap.Counters["wal_appends"], len(ops))
	}
	if snap.Counters["recoveries"] != 1 {
		t.Fatalf("recoveries = %d, want 1", snap.Counters["recoveries"])
	}
	if snap.Counters["recovery_replayed_records"] != int64(len(ops)-20) {
		t.Fatalf("replayed records counter = %d, want %d",
			snap.Counters["recovery_replayed_records"], len(ops)-20)
	}

	an, err := obs.ReadTrace(strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	sum := an.Summary()
	if len(sum.PairErrors) != 0 {
		t.Fatalf("pairing violations: %v", sum.PairErrors)
	}
	if sum.Checkpoints != 3 || sum.OpenCheckpoints != 0 {
		t.Fatalf("aggregate checkpoints = %d open %d, want 3/0", sum.Checkpoints, sum.OpenCheckpoints)
	}
	if sum.WALAppends != int64(len(ops)) || sum.Recoveries != 1 {
		t.Fatalf("aggregate wal=%d recoveries=%d", sum.WALAppends, sum.Recoveries)
	}
	if sum.ReplayedRecords != int64(len(ops)-20) {
		t.Fatalf("aggregate replayed = %d", sum.ReplayedRecords)
	}
}

// TestStickyErrorPoisonsStore: once an append fails, nothing later is
// journaled and Checkpoint refuses — a half-written log never masquerades
// as valid.
func TestStickyErrorPoisonsStore(t *testing.T) {
	const workers = 2
	ops := genOps(t, 9, 12, workers)
	inner := NewMemFS()
	ffs := NewFaultFS(inner)
	ffs.DropSyncAt = 4 // Begin costs 2 syncs (snapshot + WAL header)
	st, err := Open(ffs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		live.Apply(o)
	}
	if st.Err() == nil {
		t.Fatal("dropped sync did not poison the store")
	}
	if err := st.Checkpoint(live, nil); err == nil {
		t.Fatal("checkpoint on a poisoned store succeeded")
	}
}

// TestEncodeSnapshotAllocatesOnce: the snapshot encoder sizes its buffer
// exactly, so it allocates once and leaves no spare capacity.
func TestEncodeSnapshotAllocatesOnce(t *testing.T) {
	state, _ := newTestState(t, 3)
	for _, o := range genOps(t, 13, 40, 3) {
		state.Apply(o)
	}
	payload := []byte("resume payload")
	if b := encodeSnapshot(state, 2, 5, payload); cap(b) != len(b) {
		t.Fatalf("snapshot buffer has cap %d for %d bytes", cap(b), len(b))
	}
	if n := testing.AllocsPerRun(20, func() { encodeSnapshot(state, 2, 5, payload) }); n != 1 {
		t.Fatalf("encodeSnapshot allocates %v times, want 1", n)
	}
}

// TestWALAppendAllocatesPerPageOnly: journaling a record onto a MemFS WAL
// copies it into the tail page; only starting a new page allocates, so the
// bytes allocated per record stay near its length (a file regrown as one
// slice re-copies what it holds and allocates several times that).
func TestWALAppendAllocatesPerPageOnly(t *testing.T) {
	const perRun = 20000
	st, err := Open(NewMemFS(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, 2)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	ops := genOps(t, 17, 1, 2)
	rec := recordOf(ops[0])
	n := testing.AllocsPerRun(5, func() {
		for i := 0; i < perRun; i++ {
			st.append(st.gen, rec)
		}
	})
	if perRecord := n / perRun; perRecord >= 0.01 {
		t.Fatalf("WAL append allocates %.4f times per record, want < 0.01", perRecord)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < perRun; i++ {
		st.append(st.gen, rec)
	}
	runtime.ReadMemStats(&after)
	if perRecord := float64(after.TotalAlloc-before.TotalAlloc) / perRun; perRecord > 2*float64(rec.encodedLen()) {
		t.Fatalf("WAL append allocates %.0f bytes per %d-byte record", perRecord, rec.encodedLen())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
