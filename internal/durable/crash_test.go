package durable

import (
	"errors"
	"testing"
)

// TestRecoverAtEveryWALOffset is the kill-at-every-offset property test:
// the server is "killed" at every possible byte length of the live WAL —
// including mid-header and mid-record — and recovery from each truncation
// must rebuild exactly the state reached after the records that survived
// whole, with the torn tail discarded. Three invariants are asserted at
// every cut:
//
//  1. version monotonicity — every recovered row version lies between its
//     snapshot value and its final pre-kill value;
//  2. merge equivalence — the recovered state is bit-identical to a fresh
//     state replaying the same op prefix (shrink-to-attached averaging
//     reproduced exactly, including across detaches);
//  3. the RSP staleness bound — no active row leads the recovered minimum
//     by the threshold or more.
func TestRecoverAtEveryWALOffset(t *testing.T) {
	const (
		workers = 3
		preOps  = 30
	)
	pol, part := testShape(t, workers)
	ops := genOps(t, 0xD15A57E4, 75, workers)

	fs := NewMemFS()
	st, err := Open(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := newTestState(t, workers)
	if err := st.Begin(live, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[:preOps] {
		live.Apply(o)
	}
	if err := st.Checkpoint(live, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[preOps:] {
		live.Apply(o)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	// Record boundaries inside the live WAL: bounds[k] is the body offset
	// after k records — exactly one record per op by construction.
	post := ops[preOps:]
	bounds := make([]int, len(post)+1)
	for i, o := range post {
		bounds[i+1] = bounds[i] + recLen(o)
	}
	const wal = "ckpt/wal-00000001"
	walSize := fs.Size(wal)
	if want := walHeaderSize + bounds[len(post)]; walSize != want {
		t.Fatalf("WAL is %d bytes, want %d — an op journaled more or less than one record", walSize, want)
	}

	snapState := refState(t, workers, ops, preOps)
	finalState := refState(t, workers, ops, len(ops))

	for cut := 0; cut <= walSize; cut++ {
		clone := fs.Clone()
		if err := clone.Truncate(wal, cut); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(clone, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		rec, info, err := st2.Recover(pol, part, workers, 1.0)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// How many records survived whole below the cut.
		k := 0
		for k < len(post) && walHeaderSize+bounds[k+1] <= cut {
			k++
		}
		if info.ReplayedRecords != k {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, info.ReplayedRecords, k)
		}
		if d := diffStates(rec, refState(t, workers, ops, preOps+k), part); d != "" {
			t.Fatalf("cut %d (k=%d): recovered state diverges: %s", cut, k, d)
		}
		for w := 0; w < workers; w++ {
			for u := 0; u < part.NumUnits(); u++ {
				v := rec.Versions.Get(w, u)
				if lo, hi := snapState.Versions.Get(w, u), finalState.Versions.Get(w, u); v < lo || v > hi {
					t.Fatalf("cut %d: version[%d][%d]=%d outside [%d,%d]", cut, w, u, v, lo, hi)
				}
			}
		}
		if ahead := rec.Versions.MaxAhead(); ahead >= testThreshold {
			t.Fatalf("cut %d: recovered staleness spread %d breaches RSP bound %d", cut, ahead, testThreshold)
		}
		if string(info.Payload) != "anchor" {
			t.Fatalf("cut %d: payload = %q", cut, info.Payload)
		}
	}
}

// TestCrashFaultSweep schedules a deterministic fault at every write and
// every sync of a journaled run (tearing the Nth write after a seed-vared
// prefix, or dropping the Nth sync), lets the run hit it, then recovers
// from what the simulated power cut left behind. The recovered state must
// equal some prefix of the applied ops, never breach version monotonicity,
// and never exceed the RSP staleness bound.
func TestCrashFaultSweep(t *testing.T) {
	const workers = 3
	pol, part := testShape(t, workers)
	ops := genOps(t, 0xFA17, 50, workers)

	run := func(t *testing.T, arm func(*FaultFS)) {
		inner := NewMemFS()
		ffs := NewFaultFS(inner)
		arm(ffs)
		st, err := Open(ffs, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		live, _ := newTestState(t, workers)
		if err := st.Begin(live, nil); err != nil {
			// The fault fired inside Begin. Either it hit before the
			// snapshot rename (nothing durable exists — recovery must say
			// so rather than fabricate) or after it (the snapshot is
			// published; recovery must return exactly the initial state).
			if !errors.Is(err, ErrCrashed) {
				t.Fatal(err)
			}
			st.Crash()
			after, err := Open(inner, "ckpt")
			if err != nil {
				t.Fatal(err)
			}
			rec, info, err := after.Recover(pol, part, workers, 1.0)
			if err != nil {
				return
			}
			if info.ReplayedRecords != 0 {
				t.Fatalf("interrupted Begin replayed %d records", info.ReplayedRecords)
			}
			if d := diffStates(rec, refState(t, workers, ops, 0), part); d != "" {
				t.Fatalf("interrupted Begin recovered a non-initial state: %s", d)
			}
			return
		}
		applied := 0
		for i, o := range ops {
			live.Apply(o)
			applied = i + 1
			if i == 20 {
				// Mid-run checkpoint so the fault can land inside rotation.
				if st.Checkpoint(live, nil) != nil {
					break
				}
			}
			if st.Err() != nil {
				break
			}
		}
		st.Crash() // power cut: unsynced bytes are gone

		after, err := Open(inner, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		rec, info, err := after.Recover(pol, part, workers, 1.0)
		if err != nil {
			t.Fatalf("recovery failed after fault (applied %d ops): %v", applied, err)
		}
		match := -1
		for m := 0; m <= applied; m++ {
			if diffStates(rec, refState(t, workers, ops, m), part) == "" {
				match = m
				break
			}
		}
		if match < 0 {
			t.Fatalf("recovered state (epoch %d, %d replayed) matches no op prefix of %d applied",
				info.Epoch, info.ReplayedRecords, applied)
		}
		final := refState(t, workers, ops, applied)
		for w := 0; w < workers; w++ {
			for u := 0; u < part.NumUnits(); u++ {
				if rec.Versions.Get(w, u) > final.Versions.Get(w, u) {
					t.Fatalf("version[%d][%d] recovered ahead of what was ever applied", w, u)
				}
			}
		}
		if ahead := rec.Versions.MaxAhead(); ahead >= testThreshold {
			t.Fatalf("recovered staleness spread %d breaches RSP bound %d", ahead, testThreshold)
		}
	}

	// Ops journal ~50 writes plus checkpoint traffic; sweep past the end so
	// "fault never fires" is covered too.
	for n := 1; n <= 60; n += 1 {
		t.Run("", func(t *testing.T) {
			run(t, func(f *FaultFS) { f.TearWriteAt = n; f.KeepBytes = n % 37 })
		})
		t.Run("", func(t *testing.T) {
			run(t, func(f *FaultFS) { f.DropSyncAt = n })
		})
	}
}

// TestPlanFromSeedDeterminism: the same seed always arms the same fault,
// and distinct seeds cover both fault flavors.
func TestPlanFromSeedDeterminism(t *testing.T) {
	sawTear, sawDrop := false, false
	for seed := uint64(1); seed <= 64; seed++ {
		a, b := NewFaultFS(NewMemFS()), NewFaultFS(NewMemFS())
		a.PlanFromSeed(seed, 40)
		b.PlanFromSeed(seed, 40)
		if a.TearWriteAt != b.TearWriteAt || a.KeepBytes != b.KeepBytes || a.DropSyncAt != b.DropSyncAt {
			t.Fatalf("seed %d: plans diverge: %+v vs %+v", seed, a, b)
		}
		if a.TearWriteAt > 0 {
			sawTear = true
			if a.TearWriteAt > 40 {
				t.Fatalf("seed %d: tear slot %d beyond maxOps", seed, a.TearWriteAt)
			}
		}
		if a.DropSyncAt > 0 {
			sawDrop = true
			if a.DropSyncAt > 40 {
				t.Fatalf("seed %d: drop slot %d beyond maxOps", seed, a.DropSyncAt)
			}
		}
	}
	if !sawTear || !sawDrop {
		t.Fatalf("seed sweep covered tear=%v drop=%v, want both", sawTear, sawDrop)
	}
}

// TestSeededFaultRecovery drives the sweep through PlanFromSeed itself —
// the deterministic seed-addressed interface callers use.
func TestSeededFaultRecovery(t *testing.T) {
	const workers = 3
	pol, part := testShape(t, workers)
	ops := genOps(t, 0x5EED, 40, workers)
	for seed := uint64(1); seed <= 24; seed++ {
		inner := NewMemFS()
		ffs := NewFaultFS(inner)
		ffs.PlanFromSeed(seed, 45)
		st, err := Open(ffs, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		live, _ := newTestState(t, workers)
		if err := st.Begin(live, nil); err != nil {
			continue // fault inside the initial snapshot; covered above
		}
		applied := 0
		for i, o := range ops {
			live.Apply(o)
			applied = i + 1
			if st.Err() != nil {
				break
			}
		}
		st.Crash()
		after, err := Open(inner, "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := after.Recover(pol, part, workers, 1.0)
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		match := false
		for m := 0; m <= applied; m++ {
			if diffStates(rec, refState(t, workers, ops, m), part) == "" {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("seed %d: recovered state matches no applied prefix", seed)
		}
	}
}
