package rowsync

import (
	"fmt"
	"sync/atomic"
)

// VersionStore is the server's Version Storage (Fig. 5): for every worker r
// and unit i it records v[r][i], the latest training iteration of worker r
// whose gradients for unit i have reached the server. The two-level RSP
// staleness predicate is evaluated against the global minimum.
//
// Iterations are 1-based at the first push; 0 means "never pushed".
//
// Membership: a worker that drops out of the team is Detached — its rows
// stop participating in Min()/MaxAhead(), so RSP's wait predicate cannot
// deadlock on a ghost. A returning worker is Attached with its rows
// re-baselined at the surviving minimum, so a rejoin never drags Min()
// backwards nor inflates MaxAhead() past the staleness threshold.
//
// Sharding: the count index that backs the cached minimum is split by the
// ShardMap's contiguous unit ranges, one versionShard per range, so
// concurrent pushes to units in different shards never contend on shared
// bookkeeping. The store itself holds no locks — the caller (engine.State)
// guards each shard's counts and the matrix columns it owns with that
// shard's lock, and membership ops with all locks. The per-shard cached
// minima are atomics, so Min() is computed lock-free as the minimum over
// shard caches.
type VersionStore struct {
	v      [][]int64
	sm     *ShardMap
	shards []versionShard
	active []bool
	actN   int
}

// versionShard is the count index of one contiguous unit range. counts and
// the matrix columns in the range are guarded by the owning caller's shard
// lock; min is atomic so cross-shard readers need no lock.
type versionShard struct {
	counts map[int64]int
	min    atomic.Int64 // cached minimum over active workers' entries in range
}

// NewVersionStore creates unsharded storage for workers × units, all at
// version 0 and all workers attached.
func NewVersionStore(workers, units int) *VersionStore {
	return NewVersionStoreSharded(workers, units, NewShardMap(units, 1))
}

// NewVersionStoreSharded creates storage whose count index is split along
// sm's unit ranges. sm must cover exactly units units.
func NewVersionStoreSharded(workers, units int, sm *ShardMap) *VersionStore {
	if sm.NumUnits() != units {
		panic(fmt.Sprintf("rowsync: shard map covers %d units, store has %d", sm.NumUnits(), units))
	}
	vs := &VersionStore{
		v:      make([][]int64, workers),
		sm:     sm,
		shards: make([]versionShard, sm.NumShards()),
		active: make([]bool, workers),
		actN:   workers,
	}
	for r := range vs.v {
		vs.v[r] = make([]int64, units)
		vs.active[r] = true
	}
	for s := range vs.shards {
		lo, hi := sm.Range(s)
		vs.shards[s].counts = map[int64]int{0: workers * (hi - lo)}
	}
	return vs
}

// RestoreVersionStoreSharded rebuilds a VersionStore from checkpointed
// state: the version matrix and membership flags are adopted as-is and the
// count index is reconstructed per shard from the active workers' entries.
// frozenMin is the cached minimum the checkpoint recorded — it only
// matters when every worker was detached (the counts maps are empty and no
// minimum can be derived; emptiness is global, so the frozen value is
// valid for every shard), exactly the case Min() documents as "the last
// computed minimum". The slices are retained, not copied.
func RestoreVersionStoreSharded(v [][]int64, active []bool, frozenMin int64, sm *ShardMap) *VersionStore {
	vs := &VersionStore{
		v:      v,
		sm:     sm,
		shards: make([]versionShard, sm.NumShards()),
		active: active,
	}
	for s := range vs.shards {
		vs.shards[s].counts = make(map[int64]int)
	}
	for r := range v {
		if !active[r] {
			continue
		}
		vs.actN++
		for u, ver := range v[r] {
			vs.shards[sm.ShardOf(u)].counts[ver]++
		}
	}
	for s := range vs.shards {
		vs.shards[s].min.Store(frozenMin)
		vs.recomputeShardMin(s)
	}
	return vs
}

// recomputeShardMin rescans shard s's count index for its true minimum.
// With no tracked entries the cached value is left frozen.
func (vs *VersionStore) recomputeShardMin(s int) {
	sh := &vs.shards[s]
	first := true
	min := sh.min.Load()
	for ver := range sh.counts {
		if first || ver < min {
			min = ver
			first = false
		}
	}
	sh.min.Store(min)
}

// Get returns v[worker][unit].
func (vs *VersionStore) Get(worker, unit int) int64 { return vs.v[worker][unit] }

// Update sets v[worker][unit] = iter. Versions must not decrease. Updates
// for detached workers are recorded (a late in-flight push still lands) but
// do not touch the active minimum. The caller must hold the lock of the
// unit's shard.
func (vs *VersionStore) Update(worker, unit int, iter int64) {
	old := vs.v[worker][unit]
	if iter < old {
		panic(fmt.Sprintf("rowsync: version of worker %d unit %d decreased %d -> %d", worker, unit, old, iter))
	}
	if iter == old {
		return
	}
	vs.v[worker][unit] = iter
	if !vs.active[worker] {
		return
	}
	sh := &vs.shards[vs.sm.ShardOf(unit)]
	// Register the new version before retiring the old one, so the
	// min-advance scan below always has a populated version to stop at
	// (with a single tracked entry the map would otherwise be empty and
	// the scan would never terminate).
	sh.counts[iter]++
	sh.retire(old)
}

// retire decrements the tracked count of version old and advances the
// shard's cached minimum when old was the last entry pinning it.
func (sh *versionShard) retire(old int64) {
	sh.counts[old]--
	if sh.counts[old] == 0 {
		delete(sh.counts, old)
		if old == sh.min.Load() && len(sh.counts) > 0 {
			// Advance the cached minimum to the next populated version.
			min := old
			for sh.counts[min] == 0 {
				min++
			}
			sh.min.Store(min)
		}
	}
}

// Detach removes a departed worker from membership: its rows no longer hold
// back Min(), so RSP's wait predicate unblocks the survivors. Detaching an
// already-detached worker is a no-op. The caller must hold every shard
// lock.
func (vs *VersionStore) Detach(worker int) {
	if !vs.active[worker] {
		return
	}
	vs.active[worker] = false
	vs.actN--
	for u, v := range vs.v[worker] {
		vs.shards[vs.sm.ShardOf(u)].retire(v)
	}
}

// Attach re-admits a worker, re-baselining every row below the surviving
// minimum at that minimum (the rejoin resync: the returning robot receives
// the rows it missed, so its versions start level with the slowest
// survivor). Rows that already lead the minimum — pushed before the drop or
// landed while detached — keep their higher version. It returns the
// baseline used. Attaching an attached worker is a no-op. The caller must
// hold every shard lock.
func (vs *VersionStore) Attach(worker int) int64 {
	if vs.active[worker] {
		return vs.Min()
	}
	base := vs.Min()
	vs.active[worker] = true
	vs.actN++
	for u, v := range vs.v[worker] {
		if v < base {
			v = base
			vs.v[worker][u] = base
		}
		vs.shards[vs.sm.ShardOf(u)].counts[v]++
	}
	// The re-baselined rows are ≥ the global minimum but may trail a
	// shard's local minimum, and with zero active workers the caches were
	// frozen — recompute each shard from its rebuilt index.
	for s := range vs.shards {
		vs.recomputeShardMin(s)
	}
	return base
}

// IsActive reports whether the worker is currently attached.
func (vs *VersionStore) IsActive(worker int) bool { return vs.active[worker] }

// ActiveWorkers returns the number of currently attached workers.
func (vs *VersionStore) ActiveWorkers() int { return vs.actN }

// Min returns min(V): the oldest version of any unit on any *attached*
// worker, computed lock-free as the minimum over the shards' cached
// minima. With every worker detached it returns the last computed minimum.
func (vs *VersionStore) Min() int64 {
	min := vs.shards[0].min.Load()
	for s := 1; s < len(vs.shards); s++ {
		if m := vs.shards[s].min.Load(); m < min {
			min = m
		}
	}
	return min
}

// MaxAhead returns the largest lead of any attached worker's entry over the
// global minimum — the divergence RSP bounds by the threshold. The caller
// must hold every shard lock.
func (vs *VersionStore) MaxAhead() int64 {
	var max int64
	min := vs.Min()
	for r := range vs.v {
		if !vs.active[r] {
			continue
		}
		for _, v := range vs.v[r] {
			if v-min > max {
				max = v - min
			}
		}
	}
	return max
}

// Workers returns the number of workers tracked (attached or not).
func (vs *VersionStore) Workers() int { return len(vs.v) }

// Units returns the number of units tracked.
func (vs *VersionStore) Units() int {
	if len(vs.v) == 0 {
		return 0
	}
	return len(vs.v[0])
}
