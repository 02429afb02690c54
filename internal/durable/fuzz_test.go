package durable

import (
	"testing"
)

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder. The
// decoder's input is "whatever was on disk after the crash" — possibly a
// torn tail, possibly external corruption — so under any input it must
// neither panic nor over-allocate, and it may accept only inputs whose
// checksum actually holds. A valid snapshot round-trips exactly; every
// single-byte mutation of it must be rejected (the CRC trailer's job).
func FuzzSnapshotDecode(f *testing.F) {
	state, part := newTestState(f, 2)
	for _, o := range genOps(f, 21, 15, 2) {
		state.Apply(o)
	}
	valid := encodeSnapshot(state, 3, 7, []byte("resume payload"))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-body
	f.Add(valid[:20])           // torn inside the header
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40 // epoch bit flip: CRC must catch it
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[24], huge[25] = 0xFF, 0xFF // workers count inflated
	f.Add(huge)

	workers, units := 2, part.NumUnits()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted input: the checksum held, so the structure must be fully
		// coherent — counts non-negative and every slice at its stated size.
		if snap.workers < 0 || snap.units < 0 {
			t.Fatalf("accepted snapshot with negative shape %d×%d", snap.workers, snap.units)
		}
		if len(snap.active) != snap.workers || len(snap.reports) != snap.workers ||
			len(snap.versions) != snap.workers || len(snap.acc) != snap.workers {
			t.Fatal("accepted snapshot with per-worker slices off its stated shape")
		}
		if len(snap.rowIter) != snap.units || len(snap.unitLens) != snap.units {
			t.Fatal("accepted snapshot with per-unit slices off its stated shape")
		}
		for w := range snap.acc {
			if len(snap.versions[w]) != snap.units || len(snap.acc[w]) != snap.units {
				t.Fatal("accepted snapshot with ragged inner slices")
			}
			for u := range snap.acc[w] {
				if len(snap.acc[w][u]) != snap.unitLens[u] {
					t.Fatal("accepted snapshot with gradient run off its unit length")
				}
			}
		}
		_ = workers
		_ = units
	})
}

// FuzzWALReplay throws arbitrary bytes at the WAL record stream decoder.
// Whatever the input, replay must not panic, must consume monotonically
// (used + torn == len(input)), must never fabricate records beyond what
// the bytes could encode, and applying the decoded records to a real
// state must stay in-bounds (State.Apply's validation is part of the
// recovery surface).
func FuzzWALReplay(f *testing.F) {
	const workers = 2
	ops := genOps(f, 33, 12, workers)
	var valid []byte
	for _, o := range ops {
		valid = appendRecord(valid, recordOf(o))
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-record
	f.Add(valid[:recordMinSize-1])
	badKind := append([]byte(nil), valid...)
	badKind[0] = 0xEE
	f.Add(badKind)
	badLen := append([]byte(nil), valid...)
	badLen[25], badLen[26] = 0xFF, 0xFF // value count inflated
	f.Add(badLen)

	_, part := testShape(f, workers)
	maxVals := 0
	for u := 0; u < part.NumUnits(); u++ {
		if n := part.Unit(u).Len; n > maxVals {
			maxVals = n
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, used, torn := replayWAL(data, maxVals)
		if used+torn != len(data) {
			t.Fatalf("used %d + torn %d != %d input bytes", used, torn, len(data))
		}
		if used < 0 || torn < 0 {
			t.Fatalf("negative accounting: used %d torn %d", used, torn)
		}
		if len(recs) > used/recordMinSize {
			t.Fatalf("%d records out of %d used bytes — below the %d-byte record floor",
				len(recs), used, recordMinSize)
		}
		for _, r := range recs {
			if r.Kind == 0 || r.Kind > recKindMax {
				t.Fatalf("decoded record with kind %d outside the valid range", r.Kind)
			}
			if len(r.Vals) > maxVals {
				t.Fatalf("decoded record with %d values above the %d cap", len(r.Vals), maxVals)
			}
		}
		// Applying whatever decoded onto a real state must never index out
		// of bounds or panic; Apply rejects shape-mismatched records.
		state, _ := newTestState(t, workers)
		for _, r := range recs {
			if !state.Apply(r.transition()) {
				break
			}
		}
	})
}
