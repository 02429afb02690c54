package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// FlightRecorder is a bounded, lock-free last-N-events ring buffer: every
// event is recorded into its source's ring (one ring per worker, plus one
// shared ring for server-scoped and infrastructure events), overwriting
// the oldest, and Dump writes the retained tail — globally ordered — to
// the sink when something goes wrong (core dumps at a servercrash; a caller
// can on a lossnet abandon). The dump is JSONL in the same line
// format as JSONLTracer, headed by a FlightDump event naming the trigger,
// so ReadEvents and rogtrace parse it directly.
//
// Writers never block and never contend on a lock: each Emit takes a slot
// ticket from the ring's atomic cursor and stores a freshly allocated
// entry with an atomic pointer store, so concurrent livenet connection
// goroutines stay race-free. (The recorder allocates per event — it is
// part of the *enabled* tracing configuration; the zero-alloc guarantee
// covers only the disabled nil probe.)
type FlightRecorder struct {
	rings []flightRing
	seq   atomic.Uint64

	mu    sync.Mutex // serializes dumps, not writers
	sink  io.Writer
	buf   []byte
	dumps int
}

type flightRing struct {
	cur   atomic.Uint64
	slots []atomic.Pointer[flightEntry]
}

type flightEntry struct {
	seq uint64
	ev  Event
}

// NewFlightRecorder retains the last perSource events for each of sources
// workers plus a shared overflow ring for events from out-of-range workers
// (server-scoped records use worker -1). Dump writes to sink; a nil sink
// makes Dump a no-op (the recorder still retains, for SnapshotEvents).
func NewFlightRecorder(sources, perSource int, sink io.Writer) *FlightRecorder {
	if sources < 0 {
		sources = 0
	}
	if perSource < 1 {
		perSource = 1
	}
	f := &FlightRecorder{rings: make([]flightRing, sources+1), sink: sink}
	for i := range f.rings {
		f.rings[i].slots = make([]atomic.Pointer[flightEntry], perSource)
	}
	return f
}

// Emit implements Tracer: record the event into its source ring.
func (f *FlightRecorder) Emit(e Event) {
	r := &f.rings[len(f.rings)-1]
	if e.Worker >= 0 && e.Worker < len(f.rings)-1 {
		r = &f.rings[e.Worker]
	}
	ent := &flightEntry{seq: f.seq.Add(1), ev: e}
	slot := (r.cur.Add(1) - 1) % uint64(len(r.slots))
	r.slots[slot].Store(ent)
}

// SnapshotEvents returns the retained events in global emission order.
func (f *FlightRecorder) SnapshotEvents() []Event {
	entries := f.collect()
	evs := make([]Event, len(entries))
	for i, ent := range entries {
		evs[i] = ent.ev
	}
	return evs
}

func (f *FlightRecorder) collect() []*flightEntry {
	var entries []*flightEntry
	for i := range f.rings {
		for j := range f.rings[i].slots {
			if ent := f.rings[i].slots[j].Load(); ent != nil {
				entries = append(entries, ent)
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	return entries
}

// Dump writes the retained tail to the sink, headed by a FlightDump event
// whose Cause is the trigger and whose Units counts the entries that
// follow. Nil-receiver safe, so call sites need no enabled-check. Dumps
// are serialized; writers keep recording concurrently (an entry written
// mid-dump may or may not appear — the tail is a best-effort snapshot).
func (f *FlightRecorder) Dump(reason string) error {
	if f == nil || f.sink == nil {
		return nil
	}
	entries := f.collect()
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.buf[:0]
	b = appendEvent(b, Event{Kind: KindFlightDump, Worker: -1, Units: len(entries), Cause: reason})
	for _, ent := range entries {
		b = appendEvent(b, ent.ev)
	}
	f.buf = b
	f.dumps++
	_, err := f.sink.Write(b)
	return err
}

// Dumps counts completed Dump calls (0 on a nil recorder).
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// Tee fans every event out to each non-nil tracer, in order. It returns
// nil when nothing remains and the sole survivor unwrapped, so wiring code
// can compose an optional flight recorder with an optional trace sink
// without case analysis.
func Tee(tracers ...Tracer) Tracer {
	live := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return teeTracer(live)
	}
}

type teeTracer []Tracer

// Emit implements Tracer.
func (t teeTracer) Emit(e Event) {
	for _, tr := range t {
		tr.Emit(e)
	}
}
