package engine

// Kind names one of the seven transitions that make up a State. The
// values are the durable store's on-disk record kinds: append, never
// renumber.
type Kind uint8

const (
	// KindMerge is one stamped row: Vals landed in every averaged copy
	// scaled by Aux (the shrink-to-attached 1/attached in force), and
	// Worker's version of Unit moved to Iter. A combined row's further live
	// stamps carry a zero row and Aux 0: they advance a version only.
	KindMerge Kind = iota + 1
	// KindDrain zeroes Worker's averaged copy of Unit (its content left
	// inside a pull or resync).
	KindDrain
	// KindRestore folds Vals back into Worker's averaged copy of Unit (an
	// undelivered transmission conserving its mass).
	KindRestore
	// KindDetach removes Worker from membership.
	KindDetach
	// KindAttach re-admits Worker (re-baselining is deterministic, so the
	// event alone suffices).
	KindAttach
	// KindObserve is one MTA-time tracker report: Aux seconds for Worker.
	KindObserve
	// KindLoss is one loss-accounting update: Worker carries the folded-row
	// count, Unit the retransmitted-row count, Aux the repeat bytes.
	KindLoss
)

// Transition is one applied state transition as a value: the inputs the
// transition consumed, enough for Apply to reproduce it on another State.
// Vals is borrowed from the caller of the live path and is valid only
// for the duration of the observer call.
type Transition struct {
	Kind   Kind
	Worker int
	Unit   int
	Iter   int64
	Aux    float64
	Vals   []float32
}

// Observe appends f to the state's observer chain. Every live path calls
// the chain once per applied transition (a deduplicated merge or an
// idempotent detach applies nothing and emits nothing), in registration
// order, after the transition has taken effect and still under the lock
// that guards it — the owning shard's for merge/drain/restore, State.mu
// (plus every shard) for membership, State.mu for observe/loss. Observers
// therefore see one shard's transitions in the order they applied, and
// must not call back into the State (the lock-free Versions.Min() is fine)
// or keep Vals. Applying the observed values, in order, to a State built
// alike reproduces this one bit for bit (Apply) — the write-ahead log,
// the serving tier's weight shadow and livenet's ServerConfig.OnMerge are
// all readers of this one stream.
//
// Register before the state is shared: the chain itself is not locked.
// An empty chain costs one length check per transition and builds no value.
func (s *State) Observe(f func(Transition)) {
	s.observers = append(s.observers, f)
}

// emit hands one applied transition to the chain; the caller holds the
// lock that guards it.
func (s *State) emit(k Kind, worker, unit int, iter int64, aux float64, vals []float32) {
	for _, f := range s.observers {
		f(Transition{Kind: k, Worker: worker, Unit: unit, Iter: iter, Aux: aux, Vals: vals})
	}
}

// Apply replays one observed transition through the path that emitted it
// (so it is observed again on this state); false means t does not fit the
// state's shape and nothing was applied. A merge recomputes its scale from
// this state's membership, which a faithful replay has brought to the
// value Aux recorded.
func (s *State) Apply(t Transition) bool {
	w, u := t.Worker, t.Unit
	worker := w >= 0 && w < s.workers
	unit := worker && u >= 0 && u < s.part.NumUnits()
	row := unit && len(t.Vals) == s.part.Unit(u).Len
	switch {
	case t.Kind == KindMerge && row:
		s.Merge(w, u, t.Vals, t.Iter)
	case t.Kind == KindDrain && unit:
		sh := s.shards[s.sm.ShardOf(u)]
		sh.mu.Lock()
		s.drainUnitLocked(w, u)
		sh.mu.Unlock()
	case t.Kind == KindRestore && row:
		s.restoreUnit(w, u, t.Vals)
	case t.Kind == KindDetach && worker:
		s.Detach(w)
	case t.Kind == KindAttach && worker:
		s.Attach(w)
	case t.Kind == KindObserve && worker:
		s.mu.Lock()
		s.observeTimeLocked(w, t.Aux)
		s.mu.Unlock()
	case t.Kind == KindLoss:
		s.ObserveLoss(w, u, t.Aux)
	default:
		return false
	}
	return true
}
