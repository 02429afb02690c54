package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// ChromeTracer streams events in the Chrome trace_event (catapult) JSON
// object format, so a run opens directly in chrome://tracing or Perfetto.
//
// Durations are rendered as retroactive complete ("X") events when their
// closing record arrives — IterEnd, StallEnd and RowsSent all carry the
// elapsed duration, so ts = (now − duration) reconstructs the span without
// begin/end pairing. That sidesteps the B/E nesting rules, which the
// depth-1 worker loop's overlapping compute/comm spans would violate.
// Everything else becomes an instant ("i") event. pid is always 1; tid is
// the worker, so each robot gets its own track.
type ChromeTracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	buf    []byte
	n      int // events written, for comma placement
	closed bool
}

// NewChromeTracer wraps w and writes the stream header. Call Close to
// finalize the JSON object — an unterminated stream is not valid JSON.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	t := &ChromeTracer{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	// bufio defers write errors to the Close flush.
	t.w.WriteString(`{"traceEvents":[`)
	return t
}

// Emit implements Tracer.
func (t *ChromeTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',', '\n')
	}
	t.n++
	switch e.Kind {
	case KindIterEnd:
		total := e.Compute + e.Comm + e.Stall
		b = t.complete(b, "iter", e, total)
		b = append(b, `,"args":{"iter":`...)
		b = strconv.AppendInt(b, e.Iter, 10)
		b = append(b, `,"compute":`...)
		b = appendFloat(b, e.Compute)
		b = append(b, `,"comm":`...)
		b = appendFloat(b, e.Comm)
		b = append(b, `,"stall":`...)
		b = appendFloat(b, e.Stall)
		b = append(b, `}}`...)
	case KindStallEnd:
		b = t.complete(b, "stall:"+e.Cause, e, e.Seconds)
		b = append(b, `,"args":{"iter":`...)
		b = strconv.AppendInt(b, e.Iter, 10)
		b = append(b, `}}`...)
	case KindRowsSent:
		name := e.Dir.String()
		if name == "" {
			name = "tx"
		}
		b = t.complete(b, name, e, e.Seconds)
		b = append(b, `,"args":{"iter":`...)
		b = strconv.AppendInt(b, e.Iter, 10)
		b = append(b, `,"units":`...)
		b = strconv.AppendInt(b, int64(e.Units), 10)
		b = append(b, `,"bytes":`...)
		b = appendFloat(b, e.Bytes)
		b = append(b, `}}`...)
	default:
		b = t.instant(b, e)
	}
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		// Lossy from here; Close reports the flush error.
		return
	}
}

// complete opens an "X" (complete) event of the given duration ending at
// e.Time; the caller appends args and the closing brace.
func (t *ChromeTracer) complete(b []byte, name string, e Event, dur float64) []byte {
	if dur < 0 {
		dur = 0
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ph":"X","ts":`...)
	b = appendFloat(b, (e.Time-dur)*1e6)
	b = append(b, `,"dur":`...)
	b = appendFloat(b, dur*1e6)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Worker), 10)
	return b
}

// instant renders an "i" (instant) event, thread-scoped.
func (t *ChromeTracer) instant(b []byte, e Event) []byte {
	name := e.Kind.String()
	if e.Cause != "" {
		name += ":" + e.Cause
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ph":"i","s":"t","ts":`...)
	b = appendFloat(b, e.Time*1e6)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Worker), 10)
	b = append(b, `,"args":{"iter":`...)
	b = strconv.AppendInt(b, e.Iter, 10)
	if e.Kind == KindMerge {
		b = append(b, `,"unit":`...)
		b = strconv.AppendInt(b, int64(e.Unit), 10)
		b = append(b, `,"lag":`...)
		b = strconv.AppendInt(b, e.Lag, 10)
	}
	if e.Units != 0 {
		b = append(b, `,"units":`...)
		b = strconv.AppendInt(b, int64(e.Units), 10)
	}
	b = append(b, `}}`...)
	return b
}

// Close terminates the traceEvents array, flushes, and closes the
// underlying writer when it is closable.
func (t *ChromeTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	// The flush below surfaces any buffered write error.
	t.w.WriteString("]}\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
