package engine

import (
	"sync"
	"sync/atomic"

	"rog/internal/atp"
	"rog/internal/metrics"
	"rog/internal/obs"
	"rog/internal/rowsync"
)

// State is the server side of a run (Algo. 2), shared verbatim by both
// runtimes: per-worker averaged-gradient copies, row versions, the MTA-time
// tracker and the churn counters. It owns the merge semantics
// (shrink-to-attached averaging) and the membership bookkeeping, but parks
// nobody: a gated worker waits in its runtime (its gate slot on the simnet
// cluster, the socket server's sync.Cond), which re-evaluates CanAdvance
// after every merge and detach. Peer sequences one worker's iteration over
// this state; Replica is the matching worker side.
//
// Concurrency: the state is sharded by contiguous unit ranges (the
// ShardMap shared with the version store and the per-worker accumulators).
// Each shard owns the merge-path bookkeeping for its unit range behind its
// own lock, so pushes touching different shards proceed in parallel; the
// small residue of genuinely global state — membership, the MTA tracker,
// the policy's per-run state, the churn/loss counters — sits behind
// State.mu. The lock order is
//
//	caller's lock (livenet server.mu) → State.mu → shard.mu (ascending)
//
// and is never taken in reverse: merges take only the owning shard's lock,
// membership ops take State.mu plus every shard lock, and nothing under a
// shard lock reaches back up. Membership arrays are written only under all
// shard locks, so holding any single shard lock is enough to read them
// consistently on the merge path. Cross-shard Min() needs no locks at all:
// it folds the shards' atomically cached minima.
//
// The simnet kernel is single-threaded and calls everything from one
// goroutine; the locks cost it nothing contended. The socket server calls
// the merge path concurrently from its per-connection goroutines.
//
// The declaration below is the machine-checked form of that order: the
// lockorder pass verifies every acquisition in the module against it
// (Server.mu is livenet's, Store.mu is durable's; recovery inverts the
// store edge deliberately and carries its own ignore with the argument).
//
//roglint:lockorder Server.mu < State.mu < stateShard.mu < Store.mu
type State struct {
	policy  Policy // guarded by mu (FLOWN's ObservePush mutates its schedule)
	bound   int64  // policy.Bound(), read once: the gate's width is fixed per run
	part    *rowsync.Partition
	workers int

	mu     sync.Mutex
	sm     *rowsync.ShardMap
	shards []*stateShard

	// Acc[w] is worker w's averaged-gradient copy ḡ^s; detached workers'
	// copies keep accumulating the backlog their rejoin resync replays.
	// rowsync.NewGradStores lays the W copies out unit-major, so a merge
	// adds its row into all of them in one rowsync.AddUnitAll pass. Unit data (and
	// the dirty flags) are guarded by stateShard.mu — the unit's owning
	// shard; the slice itself is set once at construction.
	Acc      []*rowsync.GradStore
	Versions *rowsync.VersionStore
	// RowIter[u] is the latest iteration (any worker) whose gradients
	// updated unit u — the freshness input of the server-mode importance
	// metric. Entries are guarded by stateShard.mu (unit u's owning shard).
	RowIter []int64
	Tracker *atp.TimeTracker   // guarded by mu
	pull    PlanScratch        // guarded by mu; lent to the policy with every PullView
	Churn   metrics.ChurnStats // guarded by mu; per-shard duplicate counts fold in via ChurnSnapshot
	Loss    metrics.LossStats  // guarded by mu

	// observers is the chain every applied transition is handed to (see
	// Observe); appended to before the state is shared, read-only after.
	observers []func(Transition)
	// zero is MaxUnitLen zeros, never written: the row a combined merge's
	// further live stamps are observed with.
	zero []float32

	// Probe, when set, receives structured trace events and feeds the
	// runtime counters (merges with staleness lag, gate checks, MTA budget
	// utilization). nil — the default — costs one pointer check per site.
	Probe *obs.Probe

	// lastRelease records the most recent merge (or detach) that advanced
	// the global minimum — the causal releaser a closing staleness gate
	// attributes its stall to. Written only when Probe is set, so the
	// disabled path stays allocation-free; a single atomic pointer swap
	// keeps the three fields torn-read-safe against concurrent gate exits.
	lastRelease atomic.Pointer[obs.Blocker]
}

// stateShard is the independently lockable slice of server state owning
// one contiguous unit range. Its lock guards the range's version counts,
// every worker's accumulated gradients for those units, RowIter entries,
// and the counters below.
type stateShard struct {
	lo, hi int // unit range [lo, hi)

	mu      sync.Mutex
	dups    int64                    // guarded by mu; duplicate pushes dropped in this range
	maxLead int64                    // guarded by mu; largest stamped lead over Min() observed
	tile    [rowsync.FanTile]float32 // guarded by mu; AddUnitAll's scratch for this range's rows
}

// NewStateSharded builds the server state for one run, split into shards
// contiguous unit ranges (clamped to [1, NumUnits]); 1 shard is bit-for-bit
// the historical single-lock state. initialBudget seeds the MTA-time
// tracker (the simnet drivers use 1 s, the socket server its configured
// floor).
func NewStateSharded(policy Policy, part *rowsync.Partition, workers int, initialBudget float64, shards int) *State {
	sm := rowsync.NewShardMap(part.NumUnits(), shards)
	s := &State{
		policy:   policy,
		bound:    policy.Bound(),
		part:     part,
		workers:  workers,
		sm:       sm,
		Versions: rowsync.NewVersionStoreSharded(workers, part.NumUnits(), sm),
		RowIter:  make([]int64, part.NumUnits()),
		Tracker:  atp.NewTimeTracker(workers, initialBudget),
		Acc:      rowsync.NewGradStores(part, sm, workers),
		zero:     make([]float32, part.MaxUnitLen()),
	}
	for i := 0; i < sm.NumShards(); i++ {
		lo, hi := sm.Range(i)
		s.shards = append(s.shards, &stateShard{lo: lo, hi: hi})
	}
	return s
}

// Policy returns the policy this state executes.
func (s *State) Policy() Policy {
	s.mu.Lock()
	p := s.policy
	s.mu.Unlock()
	return p
}

// NumShards returns the number of independently locked shards.
func (s *State) NumShards() int { return len(s.shards) }

// ShardMap returns the unit→shard assignment.
func (s *State) ShardMap() *rowsync.ShardMap { return s.sm }

// lockShardsLocked acquires every shard lock in ascending order; the
// caller holds s.mu (the membership section of the lock order).
func (s *State) lockShardsLocked() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

// unlockShardsLocked releases every shard lock.
func (s *State) unlockShardsLocked() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// WithAllLocked runs fn with the whole state quiesced — State.mu and every
// shard lock held. This is the checkpoint barrier: a snapshot encoded
// inside fn observes no torn merges.
func (s *State) WithAllLocked(fn func()) {
	s.mu.Lock()
	s.lockShardsLocked()
	fn()
	s.unlockShardsLocked()
	s.mu.Unlock()
}

// Merge folds one received row into every worker's averaged copy (Algo. 2
// lines 2–6), taking only the owning shard's lock. It reports whether the
// global minimum version advanced — the caller's cue to re-evaluate parked
// staleness gates; callers that re-check unconditionally may discard it.
//
// Averaging is normalized by the attached team size (graceful degradation:
// N−1 workers average over N−1, not N), and the row is version-stamped
// monotonically.
//
// A push whose iteration does not advance the row's stamped version is a
// duplicate and is dropped whole. In normal operation workers push each
// (row, iteration) exactly once, so the guard only fires when a recovered
// server re-receives rows it merged before the crash — applying those
// again would double-count their gradients.
func (s *State) Merge(worker, unit int, vals []float32, iter int64) bool {
	return s.MergeBatch(worker, []int{unit}, [][]float32{vals}, iter)
}

// MergeBatch merges one push's rows — units ascending, vals[i] the row for
// units[i], all stamped iter — taking each owning shard's lock once per
// contiguous run instead of once per row. It reports whether the global
// minimum advanced across the whole batch.
func (s *State) MergeBatch(worker int, units []int, vals [][]float32, iter int64) bool {
	if len(units) == 0 {
		return false
	}
	st := Stamp{Worker: worker, Iter: iter}
	before := s.Versions.Min()
	for i := 0; i < len(units); {
		sh := s.shards[s.sm.ShardOf(units[i])]
		sh.mu.Lock()
		for i < len(units) && units[i] >= sh.lo && units[i] < sh.hi {
			s.mergeUnitLocked(sh, units[i], vals[i], st)
			i++
		}
		sh.mu.Unlock()
	}
	// The batch is one causal push; its last unit stands for it.
	return s.released(before, st, units[len(units)-1])
}

// Stamp is one originating-worker iteration carried by a merged row — the
// name of the push that sent it: iteration numbers never repeat for a worker,
// so (Worker, Iter) names one plan.
type Stamp struct {
	Worker int
	Iter   int64
}

// MergeCombined folds one edge-aggregated row: vals is the element-wise
// sum of the contributing workers' rows for unit, and stamps carries each
// originator's iteration — the provenance that preserves the RSP staleness
// bound through the aggregation tier (every contributor's version advances
// exactly as if its row had arrived alone; by linearity of the
// shrink-to-attached average, the summed mass lands identically). Stamps
// that would not advance their row's version are dropped as duplicates;
// the mass is applied if at least one stamp is live. It reports whether
// the global minimum advanced.
func (s *State) MergeCombined(unit int, vals []float32, stamps []Stamp) bool {
	before := s.Versions.Min()
	sh := s.shards[s.sm.ShardOf(unit)]
	sh.mu.Lock()
	first, live := s.mergeUnitLocked(sh, unit, vals, stamps...)
	sh.mu.Unlock()
	return live && s.released(before, first, unit)
}

// mergeUnitLocked is the one merge body: vals lands once, carried by the
// first stamp that advances its worker's version of unit (returned, with
// whether there was one); every further live stamp only advances its own
// worker's version, and is observed as a merge of a zero row so that a
// replay lands the mass once too. Stamps that advance nothing are
// duplicates. The caller holds the lock of the shard owning unit.
func (s *State) mergeUnitLocked(sh *stateShard, unit int, vals []float32, stamps ...Stamp) (first Stamp, live bool) {
	for _, st := range stamps {
		if st.Iter <= s.Versions.Get(st.Worker, unit) {
			sh.dups++
			continue
		}
		row, scale := vals, float32(0)
		if !live {
			first, live = st, true
			// Average over the attached team; the shard lock pins membership
			// (written only under all shard locks).
			active := s.Versions.ActiveWorkers()
			if active == 0 {
				active = s.workers
			}
			scale = 1 / float32(active)
			rowsync.AddUnitAll(s.Acc, unit, vals, scale, &sh.tile)
		} else {
			row = s.zero[:len(vals)]
		}
		s.stampLocked(sh, unit, st)
		s.emit(KindMerge, st.Worker, unit, st.Iter, float64(scale), row)
	}
	return first, live
}

// released reports whether the global minimum advanced past before and,
// when it did, records by's merge of unit as the release a closing
// staleness gate attributes its stall to.
func (s *State) released(before int64, by Stamp, unit int) bool {
	adv := s.Versions.Min() > before
	if adv && s.Probe != nil {
		s.lastRelease.Store(&obs.Blocker{Worker: by.Worker, Unit: unit, Version: by.Iter})
	}
	return adv
}

// stampLocked advances st.Worker's version of unit to st.Iter and traces
// the merge. Caller holds the unit's shard lock and has already
// established st.Iter > the stamped version.
func (s *State) stampLocked(sh *stateShard, unit int, st Stamp) {
	s.Versions.Update(st.Worker, unit, st.Iter)
	if st.Iter > s.RowIter[unit] {
		s.RowIter[unit] = st.Iter
	}
	// Lag is this row's stamped version ahead of the global minimum — the
	// live staleness spread RSP bounds. Min() is lock-free (cached shard
	// minima), and the lead is maximal now: recording the running maximum
	// here is exactly MaxAhead without ever holding all shard locks.
	lag := st.Iter - s.Versions.Min()
	if lag < 0 {
		lag = 0
	}
	if lag > sh.maxLead {
		sh.maxLead = lag
	}
	if s.Probe != nil {
		s.Probe.Merge(st.Worker, unit, st.Iter, 0, st.Iter, lag)
	}
}

// MaxLeadObserved returns the largest staleness lead any merge has ever
// stamped — the whole-run bound the fleet experiment asserts against the
// RSP threshold. A row's lead over the global minimum is maximal at stamp
// time — the minimum only advances afterwards — so the running maxima
// recorded on the merge path equal the maximum a full-matrix MaxAhead scan
// would ever have observed.
func (s *State) MaxLeadObserved() int64 {
	var max int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.maxLead > max {
			max = sh.maxLead
		}
		sh.mu.Unlock()
	}
	return max
}

// CanAdvance applies the policy's staleness gate at the current global
// minimum row version: iter − min < Bound(), i.e. iter < Frontier(). It is
// the one gate rule, the pull's; Peer.Admit asks it of a push, and a runtime
// that skips a check it knows would fail reads the same Frontier.
func (s *State) CanAdvance(iter int64) bool {
	ok := iter < s.Frontier()
	s.Probe.GateCheck(ok)
	return ok
}

// Frontier is the first iteration the staleness gate holds back now: the
// global minimum row version plus the policy's bound. It takes no lock —
// Min() folds the shards' atomically cached minima and the bound is fixed —
// and moves only when a merge or a detach advances the minimum.
func (s *State) Frontier() int64 {
	return s.Versions.Min() + s.bound
}

// lastReleased returns the most recent merge or detach that advanced the
// global minimum — the blocker a just-released staleness gate charges its
// stall to. NoBlocker before any release (or with the probe disabled).
func (s *State) lastReleased() obs.Blocker {
	if b := s.lastRelease.Load(); b != nil {
		return *b
	}
	return obs.NoBlocker()
}

// minRow scans for the attached (worker, unit) holding the lowest version,
// skipping worker except (−1: none), ties to the lowest unit, then worker. It
// quiesces the state, so it runs only on a wait's slow path. found is false
// when no other worker is attached: blk is then NoBlocker at the minimum.
func (s *State) minRow(except int) (blk obs.Blocker, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockShardsLocked()
	defer s.unlockShardsLocked()
	blk = obs.NoBlocker()
	blk.Version = s.Versions.Min()
	for u := 0; u < s.part.NumUnits(); u++ {
		for w := 0; w < s.workers; w++ {
			if w == except || !s.Versions.IsActive(w) {
				continue
			}
			if v := s.Versions.Get(w, u); !found || v < blk.Version {
				blk, found = obs.Blocker{Worker: w, Unit: u, Version: v}, true
				if v == s.Versions.Min() {
					return blk, found // nothing is lower
				}
			}
		}
	}
	return blk, found
}

// PlanPull asks the policy which averaged rows to return to worker after
// its iteration-iter push. Called exactly once per worker-iteration.
func (s *State) PlanPull(worker int, iter int64) Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.pull.rows[:0]
	for _, sh := range s.shards {
		sh.mu.Lock()
		for u := sh.lo; u < sh.hi; u++ {
			rows = append(rows, atp.RowInfo{ID: u, MeanAbs: s.Acc[worker].MeanAbs(u), Iter: s.RowIter[u]})
		}
		sh.mu.Unlock()
	}
	s.pull.rows = rows
	return s.policy.PlanPull(PullView{
		Worker:  worker,
		Iter:    iter,
		Rows:    rows,
		Min:     s.Versions.Min(),
		Scratch: &s.pull,
	})
}

// ObservePush records one completed push with the tracker and the policy:
// speculative pushes report their (possibly estimated) MTA time, whole-
// model pushes their full elapsed time — either way the tracker's budget
// becomes the straggler's report (Algo. 4).
func (s *State) ObservePush(worker int, iter int64, mtaTime, elapsed float64, speculative bool) {
	s.mu.Lock()
	if s.Probe != nil {
		// Utilization against the budget in force when the push was
		// planned — read before this report moves it.
		s.Probe.BudgetUsed(s.Tracker.Budget(), elapsed)
	}
	if speculative {
		if mtaTime > 0 {
			s.observeTimeLocked(worker, mtaTime)
		}
	} else if elapsed > 0 {
		s.observeTimeLocked(worker, elapsed)
	}
	s.policy.ObservePush(worker, iter, elapsed)
	s.mu.Unlock()
}

// observeTimeLocked records one tracker report; the exact value is the
// transition, so replay reproduces the budget bit-for-bit. Caller holds s.mu.
func (s *State) observeTimeLocked(worker int, seconds float64) {
	s.Tracker.Observe(worker, seconds)
	s.emit(KindObserve, worker, 0, 0, seconds, nil)
}

// Budget returns the MTA tracker's current per-push time budget.
func (s *State) Budget() float64 {
	s.mu.Lock()
	b := s.Tracker.Budget()
	s.mu.Unlock()
	return b
}

// ObserveLoss records one transmission's loss outcome: folded best-effort
// rows (treated as never sent — their gradients stay in the sender's local
// accumulator and RSP's staleness accounting is untouched) and reliable
// rows that had to be retransmitted, with the repeat bytes they cost.
func (s *State) ObserveLoss(folded, retransmitted int, retransmitBytes float64) {
	s.mu.Lock()
	s.Loss.RowsLostFolded += folded
	s.Loss.RowsRetransmitted += retransmitted
	s.Loss.RetransmitBytes += retransmitBytes
	s.emit(KindLoss, folded, retransmitted, 0, retransmitBytes, nil)
	s.mu.Unlock()
}

// Detach removes the worker from membership: its rows stop pinning the
// RSP minimum. Idempotent; counts one disconnect per actual detach.
func (s *State) Detach(worker int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockShardsLocked()
	defer s.unlockShardsLocked()
	if !s.Versions.IsActive(worker) {
		return
	}
	s.Versions.Detach(worker)
	s.Churn.Disconnects++
	s.emit(KindDetach, worker, 0, 0, 0, nil)
	if s.Probe != nil {
		// A detach can release the gate without any merge: the departing
		// worker's rows stop pinning the minimum. Unit -1 marks the
		// non-merge release; Version is the surviving minimum.
		s.lastRelease.Store(&obs.Blocker{Worker: worker, Unit: -1, Version: s.Versions.Min()})
	}
}

// Attach re-admits a detached worker, re-baselining its rows at the
// surviving minimum, and returns that baseline iteration.
func (s *State) Attach(worker int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockShardsLocked()
	defer s.unlockShardsLocked()
	base := s.Versions.Attach(worker)
	s.Churn.Reconnects++
	s.emit(KindAttach, worker, 0, 0, 0, nil)
	return base
}

// IsActive reports whether the worker is currently attached.
func (s *State) IsActive(worker int) bool {
	s.mu.Lock()
	ok := s.Versions.IsActive(worker)
	s.mu.Unlock()
	return ok
}

// ActiveWorkers returns the number of currently attached workers.
func (s *State) ActiveWorkers() int {
	s.mu.Lock()
	n := s.Versions.ActiveWorkers()
	s.mu.Unlock()
	return n
}

// drainUnitLocked zeroes worker's averaged copy of unit — the transition
// under Peer's encode-then-drain; caller holds the unit's shard lock.
func (s *State) drainUnitLocked(worker, unit int) {
	s.Acc[worker].ZeroUnit(unit)
	s.emit(KindDrain, worker, unit, 0, 0, nil)
}

// restoreUnit folds vals back into worker's averaged copy — the undo of a
// drain whose transmission never made it out, conserving gradient mass.
// A transition for the same reason the drain is: a pulled copy must stay
// drained, and a restored one restored, across a server crash.
func (s *State) restoreUnit(worker, unit int, vals []float32) {
	sh := s.shards[s.sm.ShardOf(unit)]
	sh.mu.Lock()
	s.Acc[worker].AddUnit(unit, vals, 1)
	s.emit(KindRestore, worker, unit, 0, 0, vals)
	sh.mu.Unlock()
}

// ChurnSnapshot returns the churn counters with the per-shard duplicate
// counts folded in — the consistent read both runtimes report from.
func (s *State) ChurnSnapshot() metrics.ChurnStats {
	var c metrics.ChurnStats
	s.WithAllLocked(func() { c = s.ChurnLocked() })
	return c
}

// ChurnLocked folds the per-shard duplicate counts into the churn
// counters. The caller holds the whole state (WithAllLocked) — the
// checkpoint encoder reads through here while the snapshot barrier is up.
func (s *State) ChurnLocked() metrics.ChurnStats {
	c := s.Churn
	for _, sh := range s.shards {
		c.DuplicatesDropped += int(sh.dups)
	}
	return c
}

// LossSnapshot returns the loss counters under the state lock.
func (s *State) LossSnapshot() metrics.LossStats {
	s.mu.Lock()
	l := s.Loss
	s.mu.Unlock()
	return l
}

// AddDetachStall charges sec seconds of released wait time to churn —
// stall attributable to a detach unblocking the staleness gate.
func (s *State) AddDetachStall(sec float64) {
	s.mu.Lock()
	s.Churn.DetachStall += sec
	s.mu.Unlock()
}

// addRowsResynced counts n rows replayed by a rejoin resync.
func (s *State) addRowsResynced(n int) {
	s.mu.Lock()
	s.Churn.RowsResynced += n
	s.mu.Unlock()
}
