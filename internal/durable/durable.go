// Package durable is the crash-consistency layer of the parameter server:
// a write-ahead log of every state transition appended from engine.State
// (merges, drains, restores, membership changes, tracker observations) plus
// atomic full-state snapshots, with recovery = latest valid snapshot + WAL
// replay. A server process can die at any instant — mid-append, mid-sync,
// mid-checkpoint — and the next incarnation reconstructs exactly the state
// whose mutations reached stable storage, truncating any torn WAL tail.
//
// Everything on disk is a fixed-width little-endian binary format guarded
// by CRC32 (the same discipline roglint's wireframe pass enforces on the
// socket protocol), so a torn or bit-flipped file is detected, never
// misread. Snapshots are written to a temp file, synced, then renamed —
// the classic atomic-publish sequence — so a crash mid-checkpoint leaves
// the previous snapshot intact.
//
// The package is clock-free, and the deterministic simnet drivers can
// journal through an in-memory filesystem (MemFS) whose Crash method models
// exactly what a power cut preserves — the synced prefix of every file. A
// MemFS file is a list of fixed-size pages, all full but the last, so a
// write copies each byte once and no earlier byte is ever moved; a snapshot
// is encoded into one buffer of its exact length, and recovery reads a
// MemFS file into one buffer of the file's length.
package durable

import (
	"io"
	"os"
)

// File is the handle surface the store needs: sequential reads and writes,
// an explicit durability barrier, and close.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes written data to stable storage; data not synced (or
	// renamed into place) when the process dies is assumed lost.
	Sync() error
	Close() error
}

// FS abstracts the directory the store persists into, so the deterministic
// drivers run on MemFS, the crash-fault tests on FaultFS, and rogtrain on
// the real filesystem (OSFS).
type FS interface {
	MkdirAll(dir string) error
	// Create truncates/creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	Remove(name string) error
	// List returns the base names of the files in dir.
	List(dir string) ([]string, error)
}

// Crasher is implemented by filesystems that can simulate a process/power
// crash: all written-but-unsynced data vanishes. MemFS implements it; the
// real filesystem cannot (and a simulated server crash on OSFS simply
// keeps everything that was written — the kind crash).
type Crasher interface {
	Crash()
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}
