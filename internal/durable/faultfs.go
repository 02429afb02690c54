package durable

import (
	"errors"
	"fmt"
)

// ErrCrashed is returned by every FaultFS operation after its scheduled
// fault has fired: from the store's point of view the process is dead.
var ErrCrashed = errors.New("durable: simulated crash")

// FaultFS wraps an FS and kills the process at a scheduled I/O operation:
// the Nth write is torn after a prefix of its bytes, or the Nth sync is
// silently dropped. Either way every subsequent operation returns
// ErrCrashed — the faulted process cannot limp on, it can only be
// restarted against the inner filesystem (whose Crash, for a MemFS,
// then discards whatever was never synced).
//
// Counters are shared across all files, so a schedule addresses the
// store's global I/O sequence deterministically.
type FaultFS struct {
	inner FS

	// TearWriteAt tears the Nth write (1-based) across the filesystem:
	// only KeepBytes of its buffer reach the inner file, then the fault
	// fires. 0 disables.
	TearWriteAt int
	// KeepBytes is how much of the torn write survives.
	KeepBytes int
	// DropSyncAt drops the Nth sync (1-based): the fault fires instead of
	// the barrier, so everything since the last real sync is at the mercy
	// of the inner filesystem's crash model. 0 disables.
	DropSyncAt int

	writes int
	syncs  int
	dead   bool
}

// NewFaultFS wraps inner with an inert fault plan; set TearWriteAt or
// DropSyncAt to arm it.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner}
}

// PlanFromSeed arms a deterministic pseudo-random fault within the first
// maxOps operations: even seeds tear a write (keeping a seed-derived
// prefix), odd seeds drop a sync. The same seed always yields the same
// fault, so failures replay.
func (f *FaultFS) PlanFromSeed(seed uint64, maxOps int) {
	if maxOps < 1 {
		maxOps = 1
	}
	a := splitmix64(&seed)
	b := splitmix64(&seed)
	n := int(a%uint64(maxOps)) + 1
	if seed%2 == 0 {
		f.TearWriteAt = n
		f.KeepBytes = int(b % 64)
	} else {
		f.DropSyncAt = n
	}
}

// splitmix64 is the standard 64-bit mix; state advances in place.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Crash implements Crasher by delegating to the inner filesystem (so a
// FaultFS over a MemFS composes both crash models).
func (f *FaultFS) Crash() {
	f.dead = true
	if c, ok := f.inner.(Crasher); ok {
		c.Crash()
	}
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if f.dead {
		return ErrCrashed
	}
	return f.inner.MkdirAll(dir)
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if f.dead {
		return nil, ErrCrashed
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if f.dead {
		return nil, ErrCrashed
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: inner}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if f.dead {
		return ErrCrashed
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if f.dead {
		return ErrCrashed
	}
	return f.inner.Remove(name)
}

// List implements FS.
func (f *FaultFS) List(dir string) ([]string, error) {
	if f.dead {
		return nil, ErrCrashed
	}
	return f.inner.List(dir)
}

type faultHandle struct {
	fs    *FaultFS
	inner File
}

func (h *faultHandle) Read(p []byte) (int, error) {
	if h.fs.dead {
		return 0, ErrCrashed
	}
	return h.inner.Read(p)
}

func (h *faultHandle) Write(p []byte) (int, error) {
	if h.fs.dead {
		return 0, ErrCrashed
	}
	h.fs.writes++
	if h.fs.TearWriteAt > 0 && h.fs.writes == h.fs.TearWriteAt {
		keep := h.fs.KeepBytes
		if keep > len(p) {
			keep = len(p)
		}
		if keep > 0 {
			if _, err := h.inner.Write(p[:keep]); err != nil {
				h.fs.dead = true
				return 0, fmt.Errorf("durable: torn write also failed: %w", err)
			}
		}
		h.fs.dead = true
		return keep, ErrCrashed
	}
	return h.inner.Write(p)
}

func (h *faultHandle) Sync() error {
	if h.fs.dead {
		return ErrCrashed
	}
	h.fs.syncs++
	if h.fs.DropSyncAt > 0 && h.fs.syncs == h.fs.DropSyncAt {
		h.fs.dead = true
		return ErrCrashed
	}
	return h.inner.Sync()
}

func (h *faultHandle) Close() error {
	if h.fs.dead {
		return ErrCrashed
	}
	return h.inner.Close()
}
