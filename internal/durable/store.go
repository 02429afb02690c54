package durable

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"rog/internal/engine"
	"rog/internal/obs"
	"rog/internal/rowsync"
)

// Store is the crash-consistent checkpoint store for one parameter
// server: an atomic model snapshot (temp-file + rename) plus a
// write-ahead log of every state transition applied since (the store
// observes the state: engine.State.Observe). Recovery loads the latest
// valid snapshot and replays its WAL up to the first torn record, so the
// recovered state is exactly the pre-crash state as of the last synced
// append.
//
// On disk a checkpoint is a pair: snap-N holds the snapshot, wal-N the
// transitions applied after it. Checkpoint writes snap-(N+1) atomically,
// opens wal-(N+1), then deletes the old pair; a crash between any two
// steps leaves at least one recoverable pair, and Recover prefers the
// newest valid one.
//
// I/O errors are sticky: the first failed append or checkpoint poisons
// the store (Err reports it) and every later journal write is dropped, so
// a store can never present a durably-inconsistent log as valid. The
// methods are mutex-guarded — the livenet server journals from handler
// goroutines while tests crash the store from outside.
type Store struct {
	mu  sync.Mutex
	fs  FS
	dir string

	// SyncEvery batches WAL syncs: the file is synced once per SyncEvery
	// appends (1 — the default — syncs every append). Larger values trade
	// the tail of a crash window for fewer barriers.
	SyncEvery int
	// Probe, when set, receives CheckpointBegin/End, WALAppend and
	// RecoveryReplay events and feeds the matching counters.
	Probe *obs.Probe

	epoch     uint64 // recovery epoch: bumped on every Recover
	seq       uint64 // sequence of the live snapshot/WAL pair
	maxSeq    uint64 // highest sequence seen on disk (collision avoidance)
	haveState bool   // a snapshot exists on disk
	gen       uint64 // journal generation: appends pinned to an older one are ignored
	wal       File
	walBuf    []byte
	unsynced  int
	down      bool
	err       error
}

// RecoveryInfo reports what one Recover call did.
type RecoveryInfo struct {
	// Epoch is the new recovery epoch (pre-crash epoch + 1).
	Epoch uint64
	// ReplayedRecords is how many WAL records were applied.
	ReplayedRecords int
	// ReplayedBytes is the WAL bytes those records span.
	ReplayedBytes float64
	// TornBytes is the torn tail truncated from the WAL.
	TornBytes int
	// SnapshotBytes is the size of the snapshot loaded.
	SnapshotBytes float64
	// Payload is the opaque payload stored with the snapshot (the runtime's
	// own resume state).
	Payload []byte
}

// Open binds a store to dir on fsys, creating the directory and scanning
// it for existing checkpoints (HasState reports the result). It performs
// no recovery by itself: call Begin to start fresh or Recover to restore.
func Open(fsys FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", dir, err)
	}
	st := &Store{fs: fsys, dir: dir, SyncEvery: 1}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s: %w", dir, err)
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, "snap-"); ok {
			st.haveState = true
			if seq > st.maxSeq {
				st.maxSeq = seq
			}
		}
	}
	return st, nil
}

// HasState reports whether the directory holds at least one snapshot.
func (st *Store) HasState() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.haveState
}

// Epoch returns the current recovery epoch (0 until the first recovery).
func (st *Store) Epoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// Err returns the sticky I/O error that poisoned the store, if any.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Crash simulates the process dying: the journal detaches (appends from
// the dead server's still-running handlers are dropped), and if the
// filesystem models a power cut (Crasher), unsynced bytes are lost.
// Recover brings the store back.
func (st *Store) Crash() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok := st.fs.(Crasher); ok {
		c.Crash()
	}
	st.down = true
	st.wal = nil
	st.gen++ // the dead server's journal observer goes stale
	st.err = nil
}

// Begin starts a fresh store: snapshot the initial state as checkpoint 0,
// open its WAL, and attach the journal so every later transition is
// logged. payload is the runtime's opaque resume state. Begin refuses a
// directory that already holds checkpoints — Recover them or clear it.
func (st *Store) Begin(state *engine.State, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.haveState {
		return fmt.Errorf("durable: %s already holds a checkpoint; recover it or point at a clean directory", st.dir)
	}
	st.epoch, st.seq = 0, 0
	if err := st.checkpointLocked(state, payload, 0); err != nil {
		return err
	}
	st.haveState = true
	state.Observe(journal{st: st, gen: st.gen}.observe)
	return nil
}

// Checkpoint writes a new snapshot of state (atomic: temp file, sync,
// rename), rotates the WAL, and retires the previous pair. The journal
// stays attached; the caller must guarantee no concurrent state mutation
// (both runtimes already serialize state access).
func (st *Store) Checkpoint(state *engine.State, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.down {
		return ErrCrashed
	}
	if st.err != nil {
		return st.err
	}
	return st.checkpointLocked(state, payload, st.seq+1)
}

// checkpointLocked writes the snap/wal pair for newSeq and makes it live.
func (st *Store) checkpointLocked(state *engine.State, payload []byte, newSeq uint64) error {
	st.Probe.CheckpointBegin(newSeq)
	data := encodeSnapshot(state, st.epoch, newSeq, payload)
	if err := st.writeFileAtomic(snapName(newSeq), data); err != nil {
		st.err = err
		return err
	}
	wal, err := st.fs.Create(st.path(walName(newSeq)))
	if err == nil {
		if _, werr := wal.Write(appendWALHeader(nil, st.epoch, newSeq)); werr != nil {
			err = werr
		} else if serr := wal.Sync(); serr != nil {
			err = serr
		}
	}
	if err != nil {
		st.err = fmt.Errorf("durable: open WAL %d: %w", newSeq, err)
		return st.err
	}
	if st.wal != nil {
		if cerr := st.wal.Close(); cerr != nil && st.err == nil {
			st.err = fmt.Errorf("durable: close WAL %d: %w", st.seq, cerr)
		}
	}
	oldSeq := st.seq
	st.wal, st.unsynced = wal, 0
	st.seq = newSeq
	if newSeq > st.maxSeq {
		st.maxSeq = newSeq
	}
	if oldSeq != newSeq {
		// Best-effort retirement: a leftover pair only costs disk — Recover
		// prefers the newest valid snapshot regardless.
		_ = st.fs.Remove(st.path(snapName(oldSeq)))
		_ = st.fs.Remove(st.path(walName(oldSeq)))
	}
	st.Probe.CheckpointEnd(newSeq, float64(len(data)))
	return st.err
}

// writeFileAtomic publishes name via temp-file + sync + rename, so a
// crash anywhere inside leaves either the old file or the complete new
// one — never a torn snapshot under the live name.
func (st *Store) writeFileAtomic(name string, data []byte) error {
	tmp := st.path(name + ".tmp")
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if err := st.fs.Rename(tmp, st.path(name)); err != nil {
		return fmt.Errorf("durable: publish %s: %w", name, err)
	}
	return nil
}

// Recover restores server state from the newest valid checkpoint: decode
// its snapshot, replay its WAL up to the first torn record, bump the
// recovery epoch, anchor a fresh checkpoint (so the torn WAL is retired
// before any new writes), and attach the journal to the rebuilt state.
// The policy/partition/workers/initialBudget arguments must describe the
// same run shape the checkpoint was taken from.
func (st *Store) Recover(policy engine.Policy, part *rowsync.Partition, workers int, initialBudget float64) (*engine.State, *RecoveryInfo, error) {
	return st.RecoverSharded(policy, part, workers, initialBudget, 1)
}

// RecoverSharded is Recover for a run whose rebuilt state should be split
// into shards unit-range locks (see engine.NewStateSharded). The on-disk
// format is shard-agnostic: a checkpoint taken at any shard count recovers
// at any other.
func (st *Store) RecoverSharded(policy engine.Policy, part *rowsync.Partition, workers int, initialBudget float64, shards int) (*engine.State, *RecoveryInfo, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	names, err := st.fs.List(st.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: list %s: %w", st.dir, err)
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, "snap-"); ok {
			seqs = append(seqs, seq)
			if seq > st.maxSeq {
				st.maxSeq = seq
			}
		}
	}
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("durable: %s holds no snapshot to recover", st.dir)
	}
	// Newest first: an older pair is only consulted if the newest snapshot
	// itself is invalid (it was published atomically, so that means
	// external corruption, not a crash).
	slices.Sort(seqs)
	slices.Reverse(seqs)
	var firstErr error
	for _, seq := range seqs {
		// Recovery rebuilds a State that nothing else can reach yet — its
		// locks are uncontended private plumbing until this call returns —
		// so taking them under st.mu cannot deadlock, even though it reads
		// as an inversion of the declared order.
		//roglint:ignore lockorder recovered State is unshared until RecoverSharded returns
		state, info, err := st.recoverFrom(seq, policy, part, workers, initialBudget, shards)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// The recovered pair becomes history: anchor a fresh checkpoint at
		// a new sequence so the replayed WAL (and its torn tail) is retired
		// before the journal reattaches.
		st.epoch = info.Epoch
		st.seq = seq
		st.down, st.err = false, nil
		st.wal, st.unsynced = nil, 0
		if err := st.checkpointLocked(state, info.Payload, st.maxSeq+1); err != nil {
			return nil, nil, err
		}
		st.haveState = true
		st.gen++
		state.Observe(journal{st: st, gen: st.gen}.observe)
		st.Probe.RecoveryReplay(info.ReplayedRecords, info.SnapshotBytes+info.ReplayedBytes, info.Epoch)
		return state, info, nil
	}
	return nil, nil, fmt.Errorf("durable: no recoverable checkpoint in %s: %w", st.dir, firstErr)
}

// recoverFrom rebuilds state from the snap/wal pair at seq.
func (st *Store) recoverFrom(seq uint64, policy engine.Policy, part *rowsync.Partition, workers int, initialBudget float64, shards int) (*engine.State, *RecoveryInfo, error) {
	raw, err := st.readFile(snapName(seq))
	if err != nil {
		return nil, nil, err
	}
	snap, err := decodeSnapshot(raw)
	if err != nil {
		return nil, nil, err
	}
	if snap.seq != seq {
		return nil, nil, fmt.Errorf("durable: snapshot %d claims sequence %d", seq, snap.seq)
	}
	if snap.workers != workers || snap.units != part.NumUnits() {
		return nil, nil, fmt.Errorf("durable: checkpoint shape %d workers × %d units, run has %d × %d",
			snap.workers, snap.units, workers, part.NumUnits())
	}
	for u := 0; u < part.NumUnits(); u++ {
		if snap.unitLens[u] != part.Unit(u).Len {
			return nil, nil, fmt.Errorf("durable: checkpoint unit %d holds %d values, run partition has %d",
				u, snap.unitLens[u], part.Unit(u).Len)
		}
	}

	state := engine.NewStateSharded(policy, part, workers, initialBudget, shards)
	state.Versions = rowsync.RestoreVersionStoreSharded(snap.versions, snap.active, snap.min, state.ShardMap())
	copy(state.RowIter, snap.rowIter)
	state.Churn = snap.churn
	state.Loss = snap.loss
	for w := 0; w < workers; w++ {
		state.Tracker.Observe(w, snap.reports[w])
		for u := 0; u < snap.units; u++ {
			state.Acc[w].AddUnit(u, snap.acc[w][u], 1)
		}
	}

	info := &RecoveryInfo{
		Epoch:         snap.epoch + 1,
		SnapshotBytes: float64(len(raw)),
		Payload:       snap.payload,
	}

	// The WAL may be missing entirely (crash between snapshot rename and
	// WAL create) — that is a valid zero-record state, not corruption.
	walRaw, err := st.readFile(walName(seq))
	if err != nil {
		return state, info, nil
	}
	if len(walRaw) < walHeaderSize {
		info.TornBytes = len(walRaw)
		return state, info, nil
	}
	epoch, walSeq, err := parseWALHeader(walRaw)
	if err != nil || epoch != snap.epoch || walSeq != seq {
		info.TornBytes = len(walRaw)
		return state, info, nil
	}
	recs, used, torn := replayWAL(walRaw[walHeaderSize:], part.MaxUnitLen())
	info.TornBytes = torn
	for _, r := range recs {
		if !state.Apply(r.transition()) {
			// A CRC-valid record that still fails shape validation marks the
			// point where log and state diverged; nothing after it can be
			// trusted, so the rest of the log counts as torn.
			info.TornBytes += used - int(info.ReplayedBytes)
			break
		}
		info.ReplayedRecords++
		info.ReplayedBytes += float64(r.encodedLen())
	}
	return state, info, nil
}

// journal is the store's end of one server incarnation's log: Begin and
// Recover register its observe on the state's observer chain (Recover
// before it hands the state out, so there the log is the chain's first
// reader). The generation pins it to that incarnation: after Crash or
// Recover the store's generation moves on and appends through it become
// no-ops, so a ghost handler finishing its merge on a dead server cannot
// contaminate the next incarnation's log.
type journal struct {
	st  *Store
	gen uint64
}

func (j journal) observe(t engine.Transition) { j.st.append(j.gen, recordOf(t)) }

// append logs one record for the journal of generation gen.
// Appends from stale generations (handlers of an already-crashed server)
// and poisoned or down stores are dropped — the log must never contain a
// transition the recovered state did not apply.
func (st *Store) append(gen uint64, r Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.down || st.err != nil || gen != st.gen || st.wal == nil {
		return
	}
	st.walBuf = appendRecord(st.walBuf[:0], r)
	if _, err := st.wal.Write(st.walBuf); err != nil {
		st.err = fmt.Errorf("durable: WAL append: %w", err)
		return
	}
	st.unsynced++
	if st.unsynced >= st.syncEvery() {
		if err := st.wal.Sync(); err != nil {
			st.err = fmt.Errorf("durable: WAL sync: %w", err)
			return
		}
		st.unsynced = 0
	}
	st.Probe.WALAppend(len(st.walBuf))
}

func (st *Store) syncEvery() int {
	if st.SyncEvery < 1 {
		return 1
	}
	return st.SyncEvery
}

// readFile slurps one store file: a MemFS file into one buffer of its
// length, any other through io.ReadAll.
func (st *Store) readFile(name string) ([]byte, error) {
	f, err := st.fs.Open(st.path(name))
	if err != nil {
		return nil, err
	}
	var data []byte
	if h, ok := f.(*memHandle); ok {
		data = make([]byte, h.len())
		_, err = io.ReadFull(f, data)
	} else {
		data, err = io.ReadAll(f)
	}
	_ = f.Close() // read-only handle: nothing a close error could lose
	if err != nil {
		return nil, fmt.Errorf("durable: read %s: %w", name, err)
	}
	return data, nil
}

func (st *Store) path(name string) string { return st.dir + "/" + name }

func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d", seq) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%08d", seq) }

// parseSeq extracts the sequence from a "prefix-%08d" name.
func parseSeq(name, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || strings.HasSuffix(rest, ".tmp") {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
