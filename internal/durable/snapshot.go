package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"rog/internal/engine"
	"rog/internal/metrics"
)

// Snapshot file layout (all little-endian, CRC32-IEEE over everything
// before the trailing checksum):
//
//	magic "ROGS", version u32, epoch u64, seq u64,
//	workers u32, units u32, min i64,
//	active[workers] u8,
//	churn  (disconnects, reconnects, rowsResynced, duplicatesDropped i64; detachStall f64),
//	loss   (rowsLostFolded, rowsRetransmitted i64; retransmitBytes f64),
//	reports[workers] f64, rowIter[units] i64, versions[workers*units] i64,
//	unitLens[units] u32, acc[w][u] f32 runs,
//	payloadLen u32, payload bytes, crc u32
//
// The payload section is opaque to the store: rogtrain parks the worker
// models and iteration counters there so -resume can restart the whole
// process, not just the server.
const (
	snapMagic   = "ROGS"
	snapVersion = 1
)

// snapshot is the decoded form.
type snapshot struct {
	epoch, seq     uint64
	workers, units int
	min            int64
	active         []bool
	churn          metrics.ChurnStats
	loss           metrics.LossStats
	reports        []float64
	rowIter        []int64
	versions       [][]int64
	unitLens       []int
	acc            [][][]float32
	payload        []byte
}

// encodeSnapshot serializes the durable projection of state into one
// allocation of exactly the snapshot's length. It copies payload, so the
// caller may reuse payload's memory once it returns.
func encodeSnapshot(s *engine.State, epoch, seq uint64, payload []byte) []byte {
	vs := s.Versions
	workers, units := vs.Workers(), vs.Units()
	values := 0
	for u := 0; u < units; u++ {
		values += len(s.Acc[0].Unit(u))
	}
	size := 4 + 4 + 8 + 8 + 4 + 4 + 8 + // magic … min
		workers + 5*8 + 3*8 + // active, churn, loss
		8*workers + 8*units + 8*workers*units + 4*units + // reports … unitLens
		4*workers*values + 4 + len(payload) + 4 // acc, payload, crc
	b := make([]byte, 0, size)
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(workers))
	b = binary.LittleEndian.AppendUint32(b, uint32(units))
	b = binary.LittleEndian.AppendUint64(b, uint64(vs.Min()))
	for w := 0; w < workers; w++ {
		if vs.IsActive(w) {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	churn := s.ChurnLocked()
	b = binary.LittleEndian.AppendUint64(b, uint64(churn.Disconnects))
	b = binary.LittleEndian.AppendUint64(b, uint64(churn.Reconnects))
	b = binary.LittleEndian.AppendUint64(b, uint64(churn.RowsResynced))
	b = binary.LittleEndian.AppendUint64(b, uint64(churn.DuplicatesDropped))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(churn.DetachStall))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Loss.RowsLostFolded))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Loss.RowsRetransmitted))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Loss.RetransmitBytes))
	for w := 0; w < workers; w++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Tracker.Report(w)))
	}
	for u := 0; u < units; u++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.RowIter[u]))
	}
	for w := 0; w < workers; w++ {
		for u := 0; u < units; u++ {
			b = binary.LittleEndian.AppendUint64(b, uint64(vs.Get(w, u)))
		}
	}
	for u := 0; u < units; u++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Acc[0].Unit(u))))
	}
	for w := 0; w < workers; w++ {
		for u := 0; u < units; u++ {
			for _, v := range s.Acc[w].Unit(u) {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// snapReader is a bounds-checked cursor over snapshot bytes.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("durable: snapshot truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) i64() int64   { return int64(r.u64()) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// decodeSnapshot parses and CRC-validates a snapshot file. Every count is
// validated against the remaining input before allocation, so corrupt
// input cannot demand more memory than its own length.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < 4+4+8+8+4+4+8+4 {
		return nil, fmt.Errorf("durable: snapshot too short (%d bytes)", len(data))
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch")
	}
	r := &snapReader{b: body}
	if string(r.take(4)) != snapMagic {
		return nil, fmt.Errorf("durable: bad snapshot magic")
	}
	if v := r.u32(); v != snapVersion {
		return nil, fmt.Errorf("durable: unsupported snapshot version %d", v)
	}
	s := &snapshot{}
	s.epoch = r.u64()
	s.seq = r.u64()
	s.workers = int(r.u32())
	s.units = int(r.u32())
	s.min = r.i64()
	// The fixed-width sections alone need this many bytes; a liar header
	// fails here before any allocation.
	need := s.workers + 5*8 + 3*8 + 8*s.workers + 8*s.units + 8*s.workers*s.units + 4*s.units
	if s.workers < 0 || s.units < 0 || len(body)-r.off < need {
		return nil, fmt.Errorf("durable: snapshot header claims %d workers × %d units beyond its size",
			s.workers, s.units)
	}
	s.active = make([]bool, s.workers)
	for w := range s.active {
		s.active[w] = r.take(1)[0] != 0
	}
	s.churn.Disconnects = int(r.i64())
	s.churn.Reconnects = int(r.i64())
	s.churn.RowsResynced = int(r.i64())
	s.churn.DuplicatesDropped = int(r.i64())
	s.churn.DetachStall = r.f64()
	s.loss.RowsLostFolded = int(r.i64())
	s.loss.RowsRetransmitted = int(r.i64())
	s.loss.RetransmitBytes = r.f64()
	s.reports = make([]float64, s.workers)
	for w := range s.reports {
		s.reports[w] = r.f64()
	}
	s.rowIter = make([]int64, s.units)
	for u := range s.rowIter {
		s.rowIter[u] = r.i64()
	}
	s.versions = make([][]int64, s.workers)
	for w := range s.versions {
		s.versions[w] = make([]int64, s.units)
		for u := range s.versions[w] {
			s.versions[w][u] = r.i64()
		}
	}
	s.unitLens = make([]int, s.units)
	total := 0
	for u := range s.unitLens {
		s.unitLens[u] = int(r.u32())
		total += s.unitLens[u]
	}
	if r.err == nil && (total < 0 || len(body)-r.off < 4*s.workers*total) {
		return nil, fmt.Errorf("durable: snapshot unit lengths exceed its size")
	}
	s.acc = make([][][]float32, s.workers)
	for w := range s.acc {
		s.acc[w] = make([][]float32, s.units)
		for u := range s.acc[w] {
			raw := r.take(4 * s.unitLens[u])
			if raw == nil {
				break
			}
			vals := make([]float32, s.unitLens[u])
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			s.acc[w][u] = vals
		}
	}
	plen := int(r.u32())
	s.payload = append([]byte(nil), r.take(plen)...)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("durable: %d trailing bytes after snapshot payload", len(body)-r.off)
	}
	return s, nil
}
