// Package transport implements the wire protocol of the paper's Speculative
// Transmission (Sec. V): each row payload is wrapped with unique begin/end
// marker bytes, a whole plan's frames leave in one Write under a write
// deadline (the paper's settimeout + sendall) and the byte count that got
// out says how many rows did, the sender simply abandons the frame the
// deadline cut, and receivers resync on the next begin marker, skipping any
// fragment the abandoned frame left in their buffer.
//
// A Batch is the sender's reusable buffer of whole frames; a Receiver owns
// the one buffer it reads into and hands out views of it. Anything sitting
// between the two that must act per frame on a coalesced Write (the
// lossnet.Conn loss injector) splits it with FrameLen.
//
// The discrete-event experiments model transmission in virtual time via
// simnet; this package is the real-socket counterpart, so the repo's
// protocol can also run over actual TCP/Wi-Fi links. Tests drive it over
// in-memory full-duplex pipes.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Frame markers. The sequences are long enough (8 bytes) that a collision
// with payload data is vanishingly unlikely, mirroring the paper's "several
// unique bytes at both the beginning and the ending".
var (
	startMarker = []byte{0xF0, 0x9F, 0xA6, 0xBE, 0x52, 0x4F, 0x47, 0x21}
	endMarker   = []byte{0x21, 0x47, 0x4F, 0x52, 0xBE, 0xA6, 0x9F, 0xF0}
)

// MaxFrameSize bounds a frame body; larger length prefixes are treated as
// corruption and resynced past.
const MaxFrameSize = 16 << 20

// ErrTimeout is returned by Batch.Send and SendFrames when the deadline
// interrupted the final, partially written frame.
var ErrTimeout = errors.New("transport: send deadline reached")

// FrameOverhead is the per-frame wire overhead in bytes: both markers plus
// the 4-byte length prefix.
const FrameOverhead = 8 + 4 + 8

// headerLen is the start marker plus the 4-byte length prefix.
const headerLen = 8 + 4

// Batch is a reusable buffer of whole frames: payloads are framed in place
// (Begin/End, or Append for bytes that already exist) and Send puts a range
// of them on the wire with one Write. The zero value is ready; Reset keeps
// the memory, so a connection that owns one Batch stops allocating once the
// buffer has grown to its largest plan. Not safe for concurrent use.
type Batch struct {
	buf  []byte
	ends []int // ends[i] is the offset in buf one past frame i
	err  error // first frame refused since Reset; Send reports it
}

// Reset empties the batch, keeping its memory.
func (b *Batch) Reset() { b.buf, b.ends, b.err = b.buf[:0], b.ends[:0], nil }

// Len is the number of frames in the batch.
func (b *Batch) Len() int { return len(b.ends) }

// Begin opens a frame and returns the batch's buffer for the caller to
// append the payload to; End takes the grown slice back and closes the
// frame. Marshalling straight into the batch this way is what saves the
// copies a ready-made payload costs. A frame never ended is simply
// overwritten by the next Begin.
func (b *Batch) Begin() []byte {
	return append(append(b.buf, startMarker...), 0, 0, 0, 0)
}

// End closes the frame Begin opened; buf is what Begin returned with the
// payload appended. A payload over MaxFrameSize stays out of the batch and
// makes the next Send fail.
func (b *Batch) End(buf []byte) {
	body := len(b.buf) + headerLen // b.buf ends where the last whole frame does
	n := len(buf) - body
	if n > MaxFrameSize {
		b.refuse(n)
		return
	}
	binary.LittleEndian.PutUint32(buf[body-4:], uint32(n))
	b.buf = append(buf, endMarker...)
	b.ends = append(b.ends, len(b.buf))
}

// Append frames a payload that already exists.
func (b *Batch) Append(payload []byte) {
	if len(payload) > MaxFrameSize {
		b.refuse(len(payload))
		return
	}
	b.End(append(b.Begin(), payload...))
}

// refuse records a payload of n bytes as too large to frame.
func (b *Batch) refuse(n int) {
	if b.err == nil {
		b.err = fmt.Errorf("transport: payload %d exceeds max frame size", n)
	}
}

// start is the offset of frame i.
func (b *Batch) start(i int) int {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

// Send writes frames [from, to) to conn with one Write, mirroring Algo. 4's
// SendWithTimeout, and returns the index one past the last frame that left
// whole. When the deadline (zero: none) or an error cuts the Write short,
// the byte count it reports is mapped back to whole frames: the partial
// tail is the abandoned in-flight frame, which the receiver resyncs past,
// and the error is ErrTimeout for a deadline.
func (b *Batch) Send(conn net.Conn, from, to int, deadline time.Time) (sent int, err error) {
	if !deadline.IsZero() {
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return from, err
		}
		defer conn.SetWriteDeadline(time.Time{}) //roglint:ignore errdrop best-effort deadline reset; the conn may already be dead and the caller sees the send error
	}
	return b.write(conn, from, to)
}

// write is Send without the deadline.
func (b *Batch) write(w io.Writer, from, to int) (sent int, err error) {
	if b.err != nil || from >= to {
		return from, b.err
	}
	base, end := b.start(from), b.ends[to-1]
	n, err := w.Write(b.buf[base:end])
	if err == nil && base+n < end {
		err = io.ErrShortWrite
	}
	if err == nil {
		return to, nil
	}
	sent = from
	for sent < to && b.ends[sent] <= base+n {
		sent++
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		err = ErrTimeout
	}
	return sent, err
}

// FrameLen reports the length of the whole frame b begins with — markers,
// length prefix and payload — or 0 when b does not begin with one. It lets
// a layer under a coalesced Write walk it frame by frame.
func FrameLen(b []byte) int {
	if len(b) < FrameOverhead || !bytes.HasPrefix(b, startMarker) {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(b[len(startMarker):]))
	total := FrameOverhead + n
	if n > MaxFrameSize || len(b) < total || !bytes.Equal(b[total-len(endMarker):total], endMarker) {
		return 0
	}
	return total
}

// batches pools the buffers WriteFrame and SendFrames frame into: their
// callers hold payloads, not a Batch of their own.
var batches = sync.Pool{New: func() any { return new(Batch) }}

// WriteFrame writes one framed payload to w as a single Write call.
func WriteFrame(w io.Writer, payload []byte) error {
	b := batches.Get().(*Batch)
	defer batches.Put(b)
	b.Reset()
	b.Append(payload)
	_, err := b.write(w, 0, 1)
	return err
}

// SendFrames frames the payloads into one Batch and sends it: all of them
// in one Write, or as many as the deadline let out whole (see Batch.Send).
//
// A zero deadline means no time limit.
func SendFrames(conn net.Conn, payloads [][]byte, deadline time.Time) (sent int, err error) {
	b := batches.Get().(*Batch)
	defer batches.Put(b)
	b.Reset()
	for _, p := range payloads {
		b.Append(p)
	}
	return b.Send(conn, 0, b.Len(), deadline)
}

// minRead is the least spare capacity a Receiver reads into; with less it
// compacts its buffer, or doubles it when the backlog fills it.
const minRead = 4 << 10

// Receiver reads framed payloads from a stream, resynchronizing past any
// garbage or abandoned partial frames. It owns one buffer: reads land in its
// spare capacity and Recv returns views of it, so a steady stream is
// received without allocating. Parsing out of the buffered backlog is also
// what recovers a truncated frame whose claimed length swallowed the next
// frame's bytes: when the end marker check fails, the scan restarts one byte
// past the false start marker and finds the next real frame inside the
// already-buffered bytes.
type Receiver struct {
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is the backlog not yet parsed
	eof    bool
	// Skipped counts bytes discarded during resynchronization; useful for
	// tests and diagnostics.
	Skipped int
}

// NewReceiver wraps r.
func NewReceiver(r io.Reader) *Receiver { return &Receiver{r: r} }

// Recv returns the next complete frame payload: a view of the receiver's
// buffer, valid until the next Recv — decode or copy it before then.
// Garbage, partial and corrupt frames are skipped (their bytes counted in
// Skipped). Recv returns io.EOF when the stream ends before another
// complete frame.
func (rc *Receiver) Recv() ([]byte, error) {
	for {
		win := rc.buf[rc.rd:rc.wr]
		i := bytes.Index(win, startMarker)
		if i < 0 {
			// Keep a potential marker prefix at the tail, drop the rest.
			if drop := len(win) - (len(startMarker) - 1); drop > 0 {
				rc.skip(drop)
			}
			if rc.eof {
				return nil, io.EOF
			}
			if err := rc.fill(); err != nil {
				return nil, err
			}
			continue
		}
		rc.skip(i)
		win = win[i:]

		if len(win) < headerLen {
			if rc.eof {
				return nil, io.EOF
			}
			if err := rc.fill(); err != nil {
				return nil, err
			}
			continue
		}
		n := int(binary.LittleEndian.Uint32(win[len(startMarker):headerLen]))
		if n > MaxFrameSize {
			// Corrupt length: this "marker" was a coincidence or the frame
			// is garbage — rescan one byte further.
			rc.skip(1)
			continue
		}
		total := headerLen + n + len(endMarker)
		if len(win) < total {
			if rc.eof {
				// Stream ended mid-frame: the frame is unrecoverable, but a
				// later complete frame may hide inside the bytes we already
				// hold — rescan past this marker.
				rc.skip(1)
				continue
			}
			if err := rc.fill(); err != nil {
				return nil, err
			}
			continue
		}
		if !bytes.Equal(win[headerLen+n:total], endMarker) {
			// Abandoned speculative transmission: the frame was cut short
			// and newer bytes follow where its tail should be.
			rc.skip(1)
			continue
		}
		rc.rd += total
		return win[headerLen : headerLen+n : headerLen+n], nil
	}
}

// skip discards n backlog bytes as resynchronization loss.
func (rc *Receiver) skip(n int) {
	rc.rd += n
	rc.Skipped += n
}

// fill reads more bytes from the underlying stream into the buffer's spare
// capacity, first making room when little is left: the backlog moves to the
// front, and a backlog that fills the buffer doubles it. At stream end it
// records EOF and returns nil so the parser can drain what remains.
func (rc *Receiver) fill() error {
	if rc.rd == rc.wr {
		rc.rd, rc.wr = 0, 0
	}
	if len(rc.buf)-rc.wr < minRead {
		dst := rc.buf
		if len(rc.buf)-(rc.wr-rc.rd) < minRead {
			dst = make([]byte, max(2*len(rc.buf), 32<<10))
		}
		rc.wr = copy(dst, rc.buf[rc.rd:rc.wr])
		rc.rd, rc.buf = 0, dst
	}
	n, err := rc.r.Read(rc.buf[rc.wr:])
	rc.wr += n
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
			rc.eof = true
			return nil
		}
		return err
	}
	return nil
}
