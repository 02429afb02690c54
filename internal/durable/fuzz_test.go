package durable

import (
	"bytes"
	"io"
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

// flatFile is a MemFS file as it was before pages: one slice every write
// appends to, and the synced length a crash cuts it back to. It is the
// reference FuzzMemFSMatchesFlat holds the paged file to.
type flatFile struct {
	data   []byte
	synced int
}

// flatFS is the reference filesystem: flat files under their names.
type flatFS map[string]*flatFile

func (r flatFS) clone() flatFS {
	c := make(flatFS, len(r))
	for name, f := range r {
		c[name] = &flatFile{data: bytes.Clone(f.data), synced: f.synced}
	}
	return c
}

// FuzzMemFSMatchesFlat decodes its input into a sequence of filesystem
// operations — writes of 0 bytes, of a few bytes, across the next page
// edge and of more than two pages; Sync, Crash, Truncate, Clone, Rename;
// reads through a fresh handle with odd buffer sizes — runs each on a
// MemFS and on the flat reference, and after every operation requires
// each file's bytes, size and synced length to match and its pages to keep
// the layout: every page of capacity memPageSize, all but the last full.
func FuzzMemFSMatchesFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 40, 0x04, 0, 0x02, 3, 0x05, 0, 0x09, 2})                  // write, sync, straddle, crash, read
	f.Add([]byte{0x03, 9, 0x14, 0, 0x13, 200, 0x06, 31, 0x19, 6})                // two big writes, truncate at a page edge
	f.Add([]byte{0x03, 0, 0x02, 8, 0x07, 0, 0x08, 1, 0x29, 4, 0x15, 0, 0x06, 2}) // clone, rename, read, crash
	f.Add([]byte{0x00, 0, 0x04, 0, 0x16, 254, 0x02, 16, 0x09, 5, 0x26, 130})     // empty write, truncate past the end
	names := []string{"d/a", "d/b", "d/c"}
	readSizes := []int{1, 3, 7, 255, memPageSize - 1, memPageSize + 1, 2*memPageSize + 3}
	src := make([]byte, 2*memPageSize+1024+256)
	for i := range src {
		src[i] = byte(i*7 + i>>9)
	}
	const maxSize = 4 * memPageSize
	f.Fuzz(func(t *testing.T, in []byte) {
		m, ref := NewMemFS(), flatFS{}
		for step := 0; len(in) >= 2 && step < 16; step++ {
			op, arg := in[0], int(in[1])
			in = in[2:]
			name := names[int(op>>4)%len(names)]
			r := ref[name]
			size := 0
			if r != nil {
				size = len(r.data)
			}
			switch op % 10 {
			case 0, 1, 2, 3: // write
				n := 0
				switch op % 10 {
				case 1:
					n = arg + 1
				case 2: // ends within 8 bytes either side of the next page edge
					n = max(memPageSize-size%memPageSize-8+arg%17, 0)
				case 3:
					n = 2*memPageSize + arg
				}
				if size+n > maxSize { // keep the files small, but the page offset as it was
					size %= memPageSize
					if err := m.Truncate(name, size); err != nil {
						t.Fatal(err)
					}
					r.data, r.synced = r.data[:size], size
				}
				var h File
				var err error
				if r == nil {
					h, err = m.Create(name)
					r = &flatFile{}
					ref[name] = r
				} else {
					h, err = m.Open(name)
				}
				if err != nil {
					t.Fatal(err)
				}
				off := (step*131 + arg) % 1024
				if k, err := h.Write(src[off : off+n]); k != n || err != nil {
					t.Fatalf("write of %d bytes: %d, %v", n, k, err)
				}
				r.data = append(r.data, src[off:off+n]...)
			case 4:
				if r == nil {
					continue
				}
				h, err := m.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Sync(); err != nil {
					t.Fatal(err)
				}
				r.synced = len(r.data)
			case 5:
				m.Crash()
				for _, r := range ref {
					r.data = r.data[:r.synced]
				}
			case 6: // truncate somewhere in the file, near a page edge, or near (and past) its end
				var n int
				switch a := arg / 3; arg % 3 {
				case 0:
					n = size * a / 85
				case 1:
					n = max((a%5)*memPageSize+a%3-1, 0)
				case 2:
					n = max(size+a%16-8, 0)
				}
				err := m.Truncate(name, n)
				if (err == nil) != (r != nil) {
					t.Fatalf("truncate of %s (present: %t): %v", name, r != nil, err)
				}
				if r != nil {
					n = min(n, size)
					r.data, r.synced = r.data[:n], n
				}
			case 7:
				c, rc := m.Clone(), ref.clone()
				// Rewrite every file of the original: no byte of the clone may move.
				m.Crash()
				for name := range ref {
					h, err := m.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := h.Write(src[:arg+memPageSize]); err != nil {
						t.Fatal(err)
					}
				}
				checkMemFS(t, c, rc)
				m, ref = c, rc
			case 8:
				to := names[(int(op>>4)+1+arg)%len(names)]
				err := m.Rename(name, to)
				if (err == nil) != (r != nil) {
					t.Fatalf("rename of %s (present: %t): %v", name, r != nil, err)
				}
				if r != nil {
					delete(ref, name)
					ref[to] = r
				}
			case 9:
				if r == nil {
					continue
				}
				h, err := m.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				got, buf := []byte{}, make([]byte, readSizes[arg%len(readSizes)])
				for {
					k, err := h.Read(buf)
					got = append(got, buf[:k]...)
					if err == io.EOF {
						break
					}
					if err != nil || k == 0 {
						t.Fatalf("read: %d, %v", k, err)
					}
				}
				if !bytes.Equal(got, r.data) {
					t.Fatalf("step %d: %s reads %d bytes unlike the %d written", step, name, len(got), len(r.data))
				}
			}
			checkMemFS(t, m, ref)
		}
	})
}

// checkMemFS requires m to hold exactly ref's files, byte for byte, with
// the same synced lengths and an intact page layout.
func checkMemFS(t *testing.T, m *MemFS, ref flatFS) {
	t.Helper()
	for name, r := range ref {
		if got := m.Size(name); got != len(r.data) {
			t.Fatalf("%s: size %d, reference %d", name, got, len(r.data))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.files) != len(ref) {
		t.Fatalf("%d files, reference %d", len(m.files), len(ref))
	}
	for name, r := range ref {
		f := m.files[name]
		if f == nil {
			t.Fatalf("%s missing", name)
		}
		if f.synced != r.synced {
			t.Fatalf("%s: synced %d, reference %d", name, f.synced, r.synced)
		}
		if want := (f.size + memPageSize - 1) / memPageSize; len(f.pages) != want {
			t.Fatalf("%s: %d pages for %d bytes", name, len(f.pages), f.size)
		}
		for i, pg := range f.pages {
			lo := i * memPageSize
			hi := min(lo+memPageSize, f.size)
			if cap(pg) != memPageSize || len(pg) != hi-lo {
				t.Fatalf("%s: page %d holds %d of %d bytes, want %d", name, i, len(pg), cap(pg), hi-lo)
			}
			if !bytes.Equal(pg, r.data[lo:hi]) {
				t.Fatalf("%s: page %d differs from the reference", name, i)
			}
		}
	}
}
