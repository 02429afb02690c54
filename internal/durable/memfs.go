package durable

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS with the crash semantics that matter for
// durability testing: every file tracks how many of its bytes have been
// synced, and Crash reverts each file to that synced prefix — written but
// unsynced data is lost, exactly as a power cut loses the page cache.
// Rename is atomic and durable (the rename itself survives the crash, but
// it publishes whatever of the source was synced).
//
// MemFS is safe for concurrent use: the livenet server journals from
// handler goroutines while a test thread snapshots or crashes it.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memPageSize is the unit a MemFS file grows by. A write copies its bytes
// once, into the tail page and then into fresh pages: no earlier byte is
// ever moved again, however large the file grows.
const memPageSize = 64 << 10

// memFile is a list of pages, each of capacity memPageSize; every page but
// the last is full, so byte i lives at pages[i/memPageSize][i%memPageSize].
type memFile struct {
	pages  [][]byte
	size   int
	synced int // bytes guaranteed to survive a crash
}

// write appends p, filling the tail page before starting a new one.
func (f *memFile) write(p []byte) {
	f.size += len(p)
	for len(p) > 0 {
		last := len(f.pages) - 1
		if last < 0 || len(f.pages[last]) == memPageSize {
			f.pages = append(f.pages, make([]byte, 0, memPageSize))
			last++
		}
		n := min(len(p), memPageSize-len(f.pages[last]))
		f.pages[last] = append(f.pages[last], p[:n]...) // within capacity: no move
		p = p[n:]
	}
}

// truncate cuts the file to n <= size bytes: whole pages past n are
// dropped and the page holding byte n-1 is trimmed.
func (f *memFile) truncate(n int) {
	keep := (n + memPageSize - 1) / memPageSize
	clear(f.pages[keep:])
	f.pages = f.pages[:keep]
	if keep > 0 {
		f.pages[keep-1] = f.pages[keep-1][:n-(keep-1)*memPageSize]
	}
	f.size = n
}

// readAt copies the bytes from off on into p, across page edges.
func (f *memFile) readAt(p []byte, off int) int {
	n := 0
	for n < len(p) && off < f.size {
		c := copy(p[n:], f.pages[off/memPageSize][off%memPageSize:])
		n += c
		off += c
	}
	return n
}

func (f *memFile) clone() *memFile {
	c := &memFile{pages: make([][]byte, len(f.pages)), size: f.size, synced: f.synced}
	for i, pg := range f.pages {
		c.pages[i] = append(make([]byte, 0, memPageSize), pg...)
	}
	return c
}

// NewMemFS creates an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Crash implements Crasher: every file loses its unsynced suffix.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.truncate(f.synced)
	}
}

// Clone deep-copies the filesystem — the property tests fork one recorded
// history into many crash points.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for name, f := range m.files {
		c.files[name] = f.clone()
	}
	return c
}

// Truncate cuts the named file to n bytes (marking them synced) — the
// kill-at-every-offset tests carve arbitrary torn tails with it.
func (m *MemFS) Truncate(name string, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("durable: memfs truncate %q: no such file", name)
	}
	n = min(n, f.size)
	f.truncate(n)
	f.synced = n
	return nil
}

// Size reports the current length of the named file (-1 if absent).
func (m *MemFS) Size(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return -1
	}
	return f.size
}

// MkdirAll implements FS (directories are implicit in the flat namespace).
func (m *MemFS) MkdirAll(dir string) error { return nil }

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("durable: memfs open %q: no such file", name)
	}
	return &memHandle{fs: m, f: f}, nil
}

// Rename implements FS: atomic and durable (the directory update is
// modeled as journaled by the filesystem).
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("durable: memfs rename %q: no such file", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("durable: memfs remove %q: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, strings.TrimPrefix(name, prefix))
		}
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is one open descriptor: reads see everything written so far
// (the owning process's view), writes append, Sync advances the durable
// watermark.
type memHandle struct {
	fs  *MemFS
	f   *memFile
	off int
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.off >= h.f.size {
		return 0, io.EOF
	}
	n := h.f.readAt(p, h.off)
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.write(p)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = h.f.size
	return nil
}

// len reports the file's current length: Store.readFile sizes its buffer
// by it.
func (h *memHandle) len() int {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.f.size
}

func (h *memHandle) Close() error { return nil }
