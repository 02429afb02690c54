// Package livenet runs ROG over real byte-stream connections — goroutine
// workers, a parameter-server goroutine, wall-clock speculative timeouts —
// the in-process analogue of the paper's PyTorch implementation (Sec. V).
//
// The discrete-event drivers in internal/core are what the experiments use
// (virtual time, deterministic); livenet demonstrates that the same row
// protocol — 1-bit compressed rows, marker-framed, sent with a deadline and
// discarded mid-frame at expiry, RSP staleness control on the server —
// works over actual sockets. It runs over net.Pipe in tests and over TCP
// via the ordinary net.Conn interface.
package livenet

import (
	"encoding/binary"
	"fmt"
	"math"

	"rog/internal/compress"
	"rog/internal/rowsync"
)

// Message kinds on the wire. Every frame body starts with one kind byte.
const (
	kindRow        = 'R' // worker→server: one row of gradients for iteration n
	kindPushDone   = 'D' // worker→server: push finished; carries measured MTA time
	kindPull       = 'P' // server→worker: one averaged row
	kindPullDone   = 'E' // server→worker: pull finished; carries new MTA budget
	kindResyncDone = 'Y' // server→worker: rejoin resync finished; carries the baseline iteration and MTA budget
)

// The message constructors append to dst and return it, so a sender
// marshals straight into its transport.Batch (nil builds a fresh slice).

// rowMsg encodes a gradient row pushed for iteration iter.
func rowMsg(dst []byte, iter int64, p compress.Payload) []byte {
	dst = append(dst, kindRow)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(iter))
	return p.AppendTo(dst)
}

// pushDoneMsg signals the end of a push and reports the worker's measured
// MTA time in seconds.
func pushDoneMsg(dst []byte, iter int64, mtaSeconds float64) []byte {
	dst = append(dst, kindPushDone)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(iter))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(mtaSeconds))
}

// pullMsg encodes an averaged row sent back to a worker.
func pullMsg(dst []byte, p compress.Payload) []byte {
	return p.AppendTo(append(dst, kindPull))
}

// pullDoneMsg signals the end of a pull and distributes the server's
// current MTA-time budget (the straggler's report, Algo. 4) plus the
// global minimum row version — the Min a socket worker's next PushView
// carries (FLOWN's scheduler and any staleness-aware push plan need it).
func pullDoneMsg(dst []byte, budgetSeconds float64, min int64) []byte {
	dst = append(dst, kindPullDone)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(budgetSeconds))
	return binary.LittleEndian.AppendUint64(dst, uint64(min))
}

// resyncDoneMsg ends a rejoin resync: the preceding kindPull frames carried
// every averaged row the worker missed while detached, baseline is the
// iteration the server re-baselined the worker's rows at (the worker
// fast-forwards its own counter so its next push stays monotone), budget
// seeds the MTA budget for the next push, min the worker's view of the
// global minimum row version, and epoch the server's recovery epoch — it
// increments every time the parameter server restarts from its checkpoint
// store, so a worker can tell a plain reconnect from a reconnect across a
// server crash.
func resyncDoneMsg(dst []byte, baseline int64, budgetSeconds float64, min int64, epoch uint64) []byte {
	dst = append(dst, kindResyncDone)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(baseline))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(budgetSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(min))
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// parsed is one decoded message. The roglint:wire marker holds its fields
// to fixed-width integers and keyed construction (see internal/analysis).
//
//roglint:wire
type parsed struct {
	kind    byte
	iter    int64
	mta     float64 // kindPushDone
	budget  float64 // kindPullDone, kindResyncDone
	min     int64   // kindPullDone, kindResyncDone: global minimum row version
	epoch   uint64  // kindResyncDone: server recovery epoch
	payload compress.Payload
}

// parse decodes one frame body. A row's payload aliases frame (see
// compress.Unmarshal): over a transport.Receiver view it must be decoded
// before the next Recv.
func parse(frame []byte) (parsed, error) {
	if len(frame) == 0 {
		return parsed{}, fmt.Errorf("livenet: empty frame")
	}
	switch frame[0] {
	case kindRow:
		if len(frame) < 9 {
			return parsed{}, fmt.Errorf("livenet: short row frame")
		}
		p, err := compress.Unmarshal(frame[9:])
		if err != nil {
			return parsed{}, err
		}
		return parsed{
			kind:    kindRow,
			iter:    int64(binary.LittleEndian.Uint64(frame[1:])),
			payload: p,
		}, nil
	case kindPushDone:
		if len(frame) != 17 {
			return parsed{}, fmt.Errorf("livenet: bad push-done frame")
		}
		return parsed{
			kind: kindPushDone,
			iter: int64(binary.LittleEndian.Uint64(frame[1:])),
			mta:  math.Float64frombits(binary.LittleEndian.Uint64(frame[9:])),
		}, nil
	case kindPull:
		p, err := compress.Unmarshal(frame[1:])
		if err != nil {
			return parsed{}, err
		}
		return parsed{kind: kindPull, payload: p}, nil
	case kindPullDone:
		if len(frame) != 17 {
			return parsed{}, fmt.Errorf("livenet: bad pull-done frame")
		}
		return parsed{
			kind:   kindPullDone,
			budget: math.Float64frombits(binary.LittleEndian.Uint64(frame[1:])),
			min:    int64(binary.LittleEndian.Uint64(frame[9:])),
		}, nil
	case kindResyncDone:
		if len(frame) != 33 {
			return parsed{}, fmt.Errorf("livenet: bad resync-done frame")
		}
		return parsed{
			kind:   kindResyncDone,
			iter:   int64(binary.LittleEndian.Uint64(frame[1:])),
			budget: math.Float64frombits(binary.LittleEndian.Uint64(frame[9:])),
			min:    int64(binary.LittleEndian.Uint64(frame[17:])),
			epoch:  binary.LittleEndian.Uint64(frame[25:]),
		}, nil
	default:
		return parsed{}, fmt.Errorf("livenet: unknown frame kind %q", frame[0])
	}
}

// decodeRow decodes a received row into the front of dst, after holding it
// to the partition both ends share: a row index or length that does not fit
// the model is a protocol error, not something to index with.
func decodeRow(part *rowsync.Partition, p compress.Payload, dst []float32) ([]float32, error) {
	if p.Row < 0 || p.Row >= part.NumUnits() || p.N != part.Unit(p.Row).Len {
		return nil, fmt.Errorf("livenet: row %d of %d values does not fit the model", p.Row, p.N)
	}
	vals := dst[:p.N]
	compress.Decode(p, vals)
	return vals, nil
}
