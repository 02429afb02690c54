package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary: the layer-qualified name
// ("nn.compute", "core.run"), its start and end in nanoseconds since the
// recorder was made, the span that caused it (index in the same track, -1
// for a root) and the segment it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	run        int32
}

// recorder keeps the spans of one traced pass in memory; they are written
// out once, at exit, by writeChrome. A nil *recorder is the untraced pass.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	tracks []*track // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// track is the span buffer of one goroutine: begin/end take no lock, so a
// track must not be shared. A nil *track records nothing.
type track struct {
	rec   *recorder
	name  string
	spans []span
	open  []int32
	run   int32
}

// track returns a new buffer for the calling goroutine; nil on a nil
// recorder, so untraced code can hold one unconditionally.
func (r *recorder) track(name string) *track {
	if r == nil {
		return nil
	}
	t := &track{rec: r, name: name}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

func (t *track) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.rec.t0)), parent: parent, run: t.run})
	t.open = append(t.open, id)
	return id
}

func (t *track) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.rec.t0))
	t.open = t.open[:len(t.open)-1]
}

// nextRun stamps the spans that follow with the next segment number.
func (t *track) nextRun() {
	if t != nil {
		t.run++
	}
}

// spanAgg sums the spans of one name: total is wall time inside them, self
// is total minus the time their child spans cover.
type spanAgg struct {
	count       int
	total, self float64 // seconds
	durs        []float64
}

// aggregate folds every track into per-name totals.
func (r *recorder) aggregate() map[string]*spanAgg {
	out := map[string]*spanAgg{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			a := out[s.name]
			if a == nil {
				a = &spanAgg{}
				out[s.name] = a
			}
			d := s.end - s.start
			a.count++
			a.total += float64(d) / 1e9
			a.self += float64(d-child[i]) / 1e9
			a.durs = append(a.durs, float64(d)/1e9)
		}
	}
	return out
}

func (r *recorder) numSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.tracks {
		n += len(t.spans)
	}
	return n
}

// writeChrome writes every span as a Chrome trace-event "X" record
// (chrome://tracing, Perfetto): pid is the segment, tid the track.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	tracks := append([]*track(nil), r.tracks...)
	r.mu.Unlock()
	sort.SliceStable(tracks, func(i, j int) bool { return tracks[i].name < tracks[j].name })
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for tid, t := range tracks {
		for i, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"track\":%q,\"id\":%d,\"parent\":%d}}",
				s.name, s.run, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, t.name, i, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
