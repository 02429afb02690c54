package lossnet

import (
	"net"
	"sync"
	"time"

	"rog/internal/transport"
)

// Conn wraps a net.Conn and drops whole frames according to a loss model —
// the stream-transport injection point. A sender puts a whole plan's frames
// into one Write (transport.Batch), so Write walks the frames in its buffer
// and asks the model once for each, in order: one draw is one cleanly lost
// frame, the receiver's marker scan never sees it and the stream stays
// parseable. Bytes that are not a whole frame — the tail a deadline cut, a
// raw write — pass (or drop) as one unit: a dropped *fragment* would be
// resynced past as garbage, which Receiver also survives, but frame-granular
// loss is the channel model being reproduced here.
//
// A dropped frame still reports full success to the caller, exactly like a
// datagram swallowed by the air: the sender learns nothing unless a higher
// layer acks.
type Conn struct {
	net.Conn

	mu    sync.Mutex
	model Model
	// Droppable gates which frames may be lost (nil = all). The livenet
	// chaos tests use it to confine loss to row frames: control frames
	// model the reliable side channel a real deployment acks explicitly.
	droppable func(b []byte) bool
	start     time.Time

	dropped      int64
	droppedBytes int64
}

// WrapConn wraps c so that frames accepted by droppable (nil = all) are
// dropped whenever model says so. droppable sees one whole frame, markers
// and length prefix included.
func WrapConn(c net.Conn, model Model, droppable func(b []byte) bool) *Conn {
	return &Conn{Conn: c, model: model, droppable: droppable, start: time.Now()}
}

// Write implements net.Conn, consulting the loss model once per frame of b
// and forwarding each run of surviving frames as one write. Dropped bytes
// count as written, so a short underlying write maps back to its offset
// in b.
func (c *Conn) Write(b []byte) (int, error) {
	run := 0 // b[run:off] survived and is not yet forwarded
	for off := 0; off < len(b); {
		n := transport.FrameLen(b[off:])
		if n == 0 {
			n = len(b) - off
		}
		if c.lose(b[off : off+n]) {
			if wrote, err := c.forward(b[run:off]); err != nil {
				return run + wrote, err
			}
			run = off + n
		}
		off += n
	}
	wrote, err := c.forward(b[run:])
	return run + wrote, err
}

// forward writes the survivors b to the wrapped connection.
func (c *Conn) forward(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return c.Conn.Write(b)
}

// lose draws unit's fate from the model, counting it when lost.
func (c *Conn) lose(unit []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.droppable != nil && !c.droppable(unit) {
		return false
	}
	if !c.model.Lost(time.Since(c.start).Seconds()) {
		return false
	}
	c.dropped++
	c.droppedBytes += int64(len(unit))
	return true
}

// Dropped reports how many frames (and bytes) the model swallowed.
func (c *Conn) Dropped() (frames, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped, c.droppedBytes
}
