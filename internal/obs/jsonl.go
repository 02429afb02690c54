package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// JSONLTracer streams events as one JSON object per line. Lines are
// hand-encoded into a reused buffer (no reflection, no per-event
// allocation once the buffer has grown), with zero-valued optional fields
// omitted; "ev", "t", "w" and "iter" always appear. Safe for concurrent
// emitters.
type JSONLTracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying writer, when it closes
	buf []byte
}

// NewJSONLTracer wraps w. Call Close to flush (and close w when it is an
// io.Closer).
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	t := &JSONLTracer{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := appendEvent(t.buf[:0], e)
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		// A broken sink cannot fail the training run; the trace is lossy
		// from here and Close reports the flush error.
		return
	}
}

// appendEvent renders one event as a JSONL line (trailing newline
// included), the format ReadEvents parses.
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","t":`...)
	b = appendFloat(b, e.Time)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(e.Worker), 10)
	b = append(b, `,"iter":`...)
	b = strconv.AppendInt(b, e.Iter, 10)
	if e.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, e.Seq, 10)
	}
	if e.Unit != 0 || e.Kind == KindMerge {
		b = append(b, `,"unit":`...)
		b = strconv.AppendInt(b, int64(e.Unit), 10)
	}
	if e.Units != 0 {
		b = append(b, `,"units":`...)
		b = strconv.AppendInt(b, int64(e.Units), 10)
	}
	if e.Must != 0 {
		b = append(b, `,"must":`...)
		b = strconv.AppendInt(b, int64(e.Must), 10)
	}
	if e.Deferred != 0 {
		b = append(b, `,"def":`...)
		b = strconv.AppendInt(b, int64(e.Deferred), 10)
	}
	if e.Version != 0 {
		b = append(b, `,"ver":`...)
		b = strconv.AppendInt(b, e.Version, 10)
	}
	if e.Lag != 0 {
		b = append(b, `,"lag":`...)
		b = strconv.AppendInt(b, e.Lag, 10)
	}
	if e.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = appendFloat(b, e.Bytes)
	}
	if e.Seconds != 0 {
		b = append(b, `,"sec":`...)
		b = appendFloat(b, e.Seconds)
	}
	if e.Compute != 0 {
		b = append(b, `,"compute":`...)
		b = appendFloat(b, e.Compute)
	}
	if e.Comm != 0 {
		b = append(b, `,"comm":`...)
		b = appendFloat(b, e.Comm)
	}
	if e.Stall != 0 {
		b = append(b, `,"stall":`...)
		b = appendFloat(b, e.Stall)
	}
	if e.Dir != DirNone {
		b = append(b, `,"dir":"`...)
		b = append(b, e.Dir.String()...)
		b = append(b, '"')
	}
	if e.Spec {
		b = append(b, `,"spec":true`...)
	}
	if e.Cause != "" {
		b = append(b, `,"cause":`...)
		b = strconv.AppendQuote(b, e.Cause)
	}
	// Stall blocker attribution: worker/unit 0 are real identities, so the
	// stall kinds carry all three fields unconditionally (-1 = unknown) and
	// everything else omits the zero values.
	if e.Kind == KindStallBegin || e.Kind == KindStallEnd ||
		e.BlockWorker != 0 || e.BlockUnit != 0 || e.BlockVersion != 0 {
		b = append(b, `,"bw":`...)
		b = strconv.AppendInt(b, int64(e.BlockWorker), 10)
		b = append(b, `,"bu":`...)
		b = strconv.AppendInt(b, int64(e.BlockUnit), 10)
		b = append(b, `,"bver":`...)
		b = strconv.AppendInt(b, e.BlockVersion, 10)
	}
	return append(b, '}', '\n')
}

// Close flushes buffered lines and closes the underlying writer when it is
// closable.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendFloat renders a float compactly ('g' with minimal digits).
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// jsonEvent is the decode shadow of the JSONL line format.
type jsonEvent struct {
	Ev       string  `json:"ev"`
	T        float64 `json:"t"`
	W        int     `json:"w"`
	Iter     int64   `json:"iter"`
	Unit     int     `json:"unit"`
	Units    int     `json:"units"`
	Must     int     `json:"must"`
	Deferred int     `json:"def"`
	Ver      int64   `json:"ver"`
	Lag      int64   `json:"lag"`
	Bytes    float64 `json:"bytes"`
	Sec      float64 `json:"sec"`
	Compute  float64 `json:"compute"`
	Comm     float64 `json:"comm"`
	Stall    float64 `json:"stall"`
	Dir      string  `json:"dir"`
	Spec     bool    `json:"spec"`
	Cause    string  `json:"cause"`
	Seq      int64   `json:"seq"`
	Bw       int     `json:"bw"`
	Bu       int     `json:"bu"`
	Bver     int64   `json:"bver"`
}

// ReadEvents streams a JSONL trace, invoking fn per decoded event. Blank
// lines are skipped; a malformed line or an unknown event kind is an
// error (the trace identifies itself by its first line).
func ReadEvents(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		kind := KindFromString(je.Ev)
		if kind == 0 {
			return fmt.Errorf("obs: trace line %d: unknown event kind %q", lineNo, je.Ev)
		}
		dir := DirNone
		switch je.Dir {
		case "push":
			dir = DirPush
		case "pull":
			dir = DirPull
		}
		e := Event{
			Kind: kind, Time: je.T, Worker: je.W, Iter: je.Iter,
			Unit: je.Unit, Units: je.Units, Must: je.Must, Deferred: je.Deferred,
			Version: je.Ver, Lag: je.Lag, Bytes: je.Bytes, Seconds: je.Sec,
			Compute: je.Compute, Comm: je.Comm, Stall: je.Stall,
			Dir: dir, Spec: je.Spec, Cause: je.Cause, Seq: je.Seq,
			BlockWorker: je.Bw, BlockUnit: je.Bu, BlockVersion: je.Bver,
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}
