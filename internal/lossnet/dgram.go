package lossnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"
)

// This file is the datagram row transport: the real-socket counterpart of
// the paper's speculative transmission for links where packets, not just
// bandwidth, are unreliable. It runs over any net.PacketConn (UDP, or the
// lossy in-memory pipe in tests) and implements LTP-style selective
// reliability:
//
//   - every datagram carries a sequence number;
//   - the receiver acks cumulatively (everything below the ack frontier is
//     settled) and NACKs the gaps it observes;
//   - NACKed reliable datagrams retransmit until acked;
//   - NACKed best-effort datagrams are *abandoned*: the sender emits a tiny
//     abandon notice so the receiver can close the gap, the receiver
//     reports the sequence back as lost, and the sender's caller folds the
//     row's gradient back into its local accumulator — the row counts as
//     never sent and RSP's staleness accounting stays exact.
//
// A burst is one push worth of datagrams terminated by a reliable End
// marker; SendBurst returns only when every sequence is settled, with the
// per-payload delivery verdict.

// Datagram kinds.
const (
	dgramData    uint8 = 1 // payload datagram
	dgramEnd     uint8 = 2 // reliable burst terminator (no payload)
	dgramAbandon uint8 = 3 // sender gave up on a best-effort seq (no payload)
	dgramAck     uint8 = 4 // receiver status: frontier + nack list + lost list
)

// dgramFlagReliable marks a data datagram as belonging to the reliable
// class (retransmit until acked).
const dgramFlagReliable uint8 = 1

// dgramHeaderSize is the encoded size of dgramHeader.
const dgramHeaderSize = 14

// MaxDatagramPayload bounds one datagram's payload so header+payload stays
// under typical UDP limits.
const MaxDatagramPayload = 60_000

// dgramHeader is the wire header every datagram starts with. Ack packets
// append NackCount then LostCount uint32 sequence numbers.
//
//roglint:wire
type dgramHeader struct {
	Kind      uint8  // dgramData, dgramEnd, dgramAbandon or dgramAck
	Flags     uint8  // dgramFlagReliable on reliable data
	Seq       uint32 // this datagram's sequence (data/end/abandon)
	Ack       uint32 // receiver frontier: every seq below it is settled
	NackCount uint16 // gap sequences appended (ack only)
	LostCount uint16 // settled-as-lost sequences appended (ack only)
}

// encode serializes the header into buf.
func (h dgramHeader) encode(buf []byte) {
	buf[0] = h.Kind
	buf[1] = h.Flags
	binary.LittleEndian.PutUint32(buf[2:], h.Seq)
	binary.LittleEndian.PutUint32(buf[6:], h.Ack)
	binary.LittleEndian.PutUint16(buf[10:], h.NackCount)
	binary.LittleEndian.PutUint16(buf[12:], h.LostCount)
}

// decodeHeader parses a datagram header; false when the packet is shorter
// than a header (corrupt or foreign traffic — dropped).
func decodeHeader(buf []byte) (dgramHeader, bool) {
	if len(buf) < dgramHeaderSize {
		return dgramHeader{}, false
	}
	return dgramHeader{
		Kind:      buf[0],
		Flags:     buf[1],
		Seq:       binary.LittleEndian.Uint32(buf[2:]),
		Ack:       binary.LittleEndian.Uint32(buf[6:]),
		NackCount: binary.LittleEndian.Uint16(buf[10:]),
		LostCount: binary.LittleEndian.Uint16(buf[12:]),
	}, true
}

// DgramStats counts one endpoint's datagram traffic.
type DgramStats struct {
	DataSent    int64 // first-attempt data datagrams
	Retransmits int64 // reliable data datagrams sent again
	Abandons    int64 // abandon notices sent
	AcksSent    int64
	Duplicates  int64 // already-settled datagrams received again
	Lost        int64 // best-effort sequences settled as lost
}

// ErrBurstTimeout is returned when a burst could not settle before its
// deadline.
var ErrBurstTimeout = errors.New("lossnet: burst deadline reached")

// BurstSender transmits payload bursts with selective reliability over a
// packet conn. Not safe for concurrent use.
type BurstSender struct {
	conn net.PacketConn
	peer net.Addr
	// RTO is the retransmission timeout: how long to wait for ack progress
	// before resending everything unsettled.
	RTO   time.Duration
	seq   uint32
	Stats DgramStats
}

// NewBurstSender sends to peer over conn.
func NewBurstSender(conn net.PacketConn, peer net.Addr) *BurstSender {
	return &BurstSender{conn: conn, peer: peer, RTO: 15 * time.Millisecond, seq: 1}
}

// sendData emits one data datagram for payload index i.
func (s *BurstSender) sendData(seq uint32, payload []byte, reliable bool) error {
	buf := make([]byte, dgramHeaderSize+len(payload))
	h := dgramHeader{Kind: dgramData, Seq: seq}
	if reliable {
		h.Flags = dgramFlagReliable
	}
	h.encode(buf)
	copy(buf[dgramHeaderSize:], payload)
	_, err := s.conn.WriteTo(buf, s.peer)
	return err
}

// sendCtl emits a payload-less datagram (end or abandon).
func (s *BurstSender) sendCtl(kind uint8, seq uint32) error {
	var buf [dgramHeaderSize]byte
	dgramHeader{Kind: kind, Seq: seq, Flags: dgramFlagReliable}.encode(buf[:])
	_, err := s.conn.WriteTo(buf[:], s.peer)
	return err
}

// SendBurst transmits the payloads as one burst: reliable(i) selects the
// reliable class. It blocks until every sequence settles (acked delivered,
// or abandoned and confirmed lost) and returns delivered[i] per payload —
// false means the best-effort payload was lost and its gradient must be
// folded back by the caller. Fails with ErrBurstTimeout at the deadline.
func (s *BurstSender) SendBurst(payloads [][]byte, reliable func(i int) bool, deadline time.Time) (delivered []bool, err error) {
	delivered = make([]bool, len(payloads))
	first := s.seq
	// pending maps each unsettled seq to its payload index (-1 = the End
	// marker). rel mirrors the reliable flag per seq.
	pending := make(map[uint32]int, len(payloads)+1)
	rel := make(map[uint32]bool, len(payloads)+1)
	for i, p := range payloads {
		if len(p) > MaxDatagramPayload {
			return nil, fmt.Errorf("lossnet: payload %d is %d bytes (max %d)", i, len(p), MaxDatagramPayload)
		}
		seq := s.seq
		s.seq++
		pending[seq] = i
		rel[seq] = reliable == nil || reliable(i)
		if err := s.sendData(seq, p, rel[seq]); err != nil {
			return nil, err
		}
		s.Stats.DataSent++
	}
	endSeq := s.seq
	s.seq++
	pending[endSeq] = -1
	rel[endSeq] = true
	if err := s.sendCtl(dgramEnd, endSeq); err != nil {
		return nil, err
	}

	// resend retransmits every unsettled reliable seq and re-abandons every
	// unsettled best-effort one — the timeout path and the NACK path share
	// it. Only timers drive repeats (LTP's rule): a NACK triggers a seq's
	// first repeat at once, but a seq repeated inside the current RTO is
	// left to that repeat. The receiver acks every datagram with its full
	// gap list; answering each NACK multiplies one loss into a repeat per
	// ack and an ack per repeat until the ack path overflows and drops the
	// ack that settles the burst.
	var repeated map[uint32]time.Time // seq → its latest repeat; made on the first one
	resend := func(seqs []uint32, nacked bool) error {
		if len(seqs) == 0 {
			return nil
		}
		now := time.Now()
		for _, q := range seqs {
			idx, open := pending[q]
			if !open {
				continue
			}
			if at, ok := repeated[q]; nacked && ok && now.Sub(at) < s.RTO {
				continue
			}
			if repeated == nil {
				repeated = make(map[uint32]time.Time)
			}
			repeated[q] = now
			switch {
			case idx == -1:
				if err := s.sendCtl(dgramEnd, q); err != nil {
					return err
				}
				s.Stats.Retransmits++
			case rel[q]:
				if err := s.sendData(q, payloads[idx], true); err != nil {
					return err
				}
				s.Stats.Retransmits++
			default:
				if err := s.sendCtl(dgramAbandon, q); err != nil {
					return err
				}
				s.Stats.Abandons++
			}
		}
		return nil
	}

	buf := make([]byte, dgramHeaderSize+MaxDatagramPayload)
	for len(pending) > 0 {
		if !time.Now().Before(deadline) {
			return delivered, ErrBurstTimeout
		}
		rto := time.Now().Add(s.RTO)
		if rto.After(deadline) {
			rto = deadline
		}
		if err := s.conn.SetReadDeadline(rto); err != nil {
			return delivered, err
		}
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// No ack progress inside the RTO: resend the world.
				all := make([]uint32, 0, len(pending))
				for q := range pending {
					all = append(all, q)
				}
				if err := resend(all, false); err != nil {
					return delivered, err
				}
				continue
			}
			return delivered, err
		}
		h, ok := decodeHeader(buf[:n])
		if !ok || h.Kind != dgramAck {
			continue
		}
		lists := buf[dgramHeaderSize:n]
		if len(lists) < 4*(int(h.NackCount)+int(h.LostCount)) {
			continue // truncated ack
		}
		// Lost list first: those sequences settled as lost at the receiver.
		for i := 0; i < int(h.LostCount); i++ {
			q := binary.LittleEndian.Uint32(lists[4*(int(h.NackCount)+i):])
			if idx, open := pending[q]; open {
				if idx >= 0 {
					s.Stats.Lost++
				}
				delete(pending, q)
			}
		}
		// Cumulative frontier: everything below it not reported lost was
		// delivered.
		for q, idx := range pending {
			if q-first < h.Ack-first && h.Ack-first <= endSeq-first+1 {
				if idx >= 0 {
					delivered[idx] = true
				}
				delete(pending, q)
			}
		}
		// NACKed gaps: selective retransmit / abandon.
		nacks := make([]uint32, 0, h.NackCount)
		for i := 0; i < int(h.NackCount); i++ {
			nacks = append(nacks, binary.LittleEndian.Uint32(lists[4*i:]))
		}
		if err := resend(nacks, true); err != nil {
			return delivered, err
		}
	}
	return delivered, nil
}

// BurstReceiver receives payload bursts and reports sequence gaps. Not
// safe for concurrent use. Frontier state persists across bursts on the
// same receiver, matching the sender's running sequence numbers.
type BurstReceiver struct {
	conn        net.PacketConn
	frontier    uint32            // every seq below is settled
	nextDeliver uint32            // next seq to hand to the burst's handler
	seen        map[uint32]bool   // settled sequences at/above the frontier
	payloads    map[uint32][]byte // received but undelivered (out-of-order)
	maxSeen     uint32
	// lost retains recently settled-as-lost sequences across bursts: a
	// sender whose acks were dropped may still be retransmitting a previous
	// burst, and the re-acks must keep reporting those losses or it would
	// mistake a frontier pass for delivery. The sender ignores entries for
	// sequences it no longer has pending.
	lost  []uint32
	Stats DgramStats
}

// NewBurstReceiver receives on conn.
func NewBurstReceiver(conn net.PacketConn) *BurstReceiver {
	return &BurstReceiver{
		conn:        conn,
		frontier:    1,
		nextDeliver: 1,
		seen:        make(map[uint32]bool),
		payloads:    make(map[uint32][]byte),
	}
}

// advance walks the frontier over contiguously settled sequences.
func (r *BurstReceiver) advance() {
	for r.seen[r.frontier] {
		delete(r.seen, r.frontier)
		r.frontier++
	}
}

// maxSeenStale reports whether maxSeen fell behind the frontier (every
// seen sequence settled, so there is no gap to report): serial arithmetic
// on the frontier would underflow and fabricate NACKs.
func (r *BurstReceiver) maxSeenStale() bool {
	return r.maxSeen == 0 || r.maxSeen-r.frontier >= 1<<31
}

// sendAck reports the frontier plus the current gap and lost lists to addr.
func (r *BurstReceiver) sendAck(addr net.Addr) error {
	var nacks []uint32
	if !r.maxSeenStale() {
		for q := r.frontier; q-r.frontier <= r.maxSeen-r.frontier && len(nacks) < 128; q++ {
			if !r.seen[q] {
				nacks = append(nacks, q)
			}
		}
	}
	lost := r.lost
	if len(lost) > 128 {
		lost = lost[len(lost)-128:]
	}
	buf := make([]byte, dgramHeaderSize+4*(len(nacks)+len(lost)))
	dgramHeader{
		Kind:      dgramAck,
		Ack:       r.frontier,
		NackCount: uint16(len(nacks)),
		LostCount: uint16(len(lost)),
	}.encode(buf)
	for i, q := range nacks {
		binary.LittleEndian.PutUint32(buf[dgramHeaderSize+4*i:], q)
	}
	for i, q := range lost {
		binary.LittleEndian.PutUint32(buf[dgramHeaderSize+4*(len(nacks)+i):], q)
	}
	r.Stats.AcksSent++
	_, err := r.conn.WriteTo(buf, addr)
	return err
}

// RecvBurst collects one burst, invoking handle for every delivered payload
// in sequence order, and returns the number of best-effort sequences the
// burst lost (the gaps the sender folded back). It returns when the burst's
// End marker settles, or ErrBurstTimeout at the deadline.
func (r *BurstReceiver) RecvBurst(deadline time.Time, handle func(payload []byte)) (lost int, err error) {
	burstLost := 0
	buf := make([]byte, dgramHeaderSize+MaxDatagramPayload)
	endSeq, endKnown := uint32(0), false
	// Only an End at or above this call's starting frontier can complete the
	// call: a retransmitted End of an already-finished burst (its ack was
	// lost) is acked but must not make this call return an empty burst.
	startFrontier := r.frontier
	deliver := func() {
		// Hand over settled payloads in sequence order up to the frontier;
		// out-of-order arrivals wait in r.payloads until the gap settles.
		// Lost and control sequences simply advance the cursor.
		for r.nextDeliver != r.frontier {
			if p, ok := r.payloads[r.nextDeliver]; ok {
				handle(p)
				delete(r.payloads, r.nextDeliver)
			}
			r.nextDeliver++
		}
	}
	for {
		if endKnown && endSeq-r.frontier >= 1<<31 { // frontier passed the end marker
			deliver()
			return burstLost, nil
		}
		if !time.Now().Before(deadline) {
			return burstLost, ErrBurstTimeout
		}
		if err := r.conn.SetReadDeadline(deadline); err != nil {
			return burstLost, err
		}
		n, addr, err := r.conn.ReadFrom(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return burstLost, ErrBurstTimeout
			}
			return burstLost, err
		}
		h, ok := decodeHeader(buf[:n])
		if !ok {
			continue
		}
		switch h.Kind {
		case dgramData, dgramEnd, dgramAbandon:
			settled := h.Seq-r.frontier >= 1<<31 || r.seen[h.Seq]
			if settled {
				r.Stats.Duplicates++
			} else {
				if r.maxSeenStale() || h.Seq-r.frontier > r.maxSeen-r.frontier {
					r.maxSeen = h.Seq
				}
				r.seen[h.Seq] = true
				switch h.Kind {
				case dgramData:
					p := make([]byte, n-dgramHeaderSize)
					copy(p, buf[dgramHeaderSize:n])
					r.payloads[h.Seq] = p
				case dgramAbandon:
					// The sender gave this best-effort sequence up: settle
					// it as lost and report it back so the fold-back is
					// confirmed on both sides.
					r.lost = append(r.lost, h.Seq)
					if len(r.lost) > 128 {
						r.lost = r.lost[len(r.lost)-128:]
					}
					burstLost++
					r.Stats.Lost++
				}
				r.advance()
			}
			if h.Kind == dgramEnd && h.Seq-startFrontier < 1<<31 {
				endSeq, endKnown = h.Seq, true
			}
			deliver()
			if err := r.sendAck(addr); err != nil {
				return burstLost, err
			}
		}
	}
}
