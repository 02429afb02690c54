package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"rog/internal/engine"
)

// Fixed layout: kind(1) worker(4) unit(4) iter(8) aux(8) n(4), then n
// float32 values, then CRC32-IEEE over everything before it.
const (
	recordHeaderSize = 1 + 4 + 4 + 8 + 8 + 4
	recordCRCSize    = 4
	recordMinSize    = recordHeaderSize + recordCRCSize
)

// Record is one WAL entry: an engine.Transition at fixed widths (Kind is
// the engine.Kind value; what each kind's fields carry is stated there).
// The roglint:wire marker holds its fields to fixed-width integers and
// keyed construction (see internal/analysis).
//
//roglint:wire
type Record struct {
	Kind   uint8
	Worker int32
	Unit   int32
	Iter   int64
	Aux    float64
	Vals   []float32
}

const recKindMax = uint8(engine.KindLoss)

// recordOf is t at wire widths; Vals stays borrowed.
func recordOf(t engine.Transition) Record {
	return Record{Kind: uint8(t.Kind), Worker: int32(t.Worker), Unit: int32(t.Unit), Iter: t.Iter, Aux: t.Aux, Vals: t.Vals}
}

// transition is the value r was logged from.
func (r Record) transition() engine.Transition {
	return engine.Transition{Kind: engine.Kind(r.Kind), Worker: int(r.Worker), Unit: int(r.Unit), Iter: r.Iter, Aux: r.Aux, Vals: r.Vals}
}

// encodedLen returns the on-disk size of the record.
func (r Record) encodedLen() int {
	return recordMinSize + 4*len(r.Vals)
}

// appendRecord encodes r onto dst and returns the extended slice.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, r.Kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Worker))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Unit))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Iter))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Aux))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Vals)))
	for _, v := range r.Vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodeRecord decodes one record from the head of b. maxVals bounds the
// value count so corrupt (or hostile) input cannot demand an absurd
// allocation. It returns the record and the bytes consumed; any error —
// truncation, CRC mismatch, out-of-range fields — means the record (and
// with it the WAL tail) is torn.
func decodeRecord(b []byte, maxVals int) (Record, int, error) {
	if len(b) < recordMinSize {
		return Record{}, 0, fmt.Errorf("durable: torn record header (%d bytes)", len(b))
	}
	var r Record
	r.Kind = b[0]
	r.Worker = int32(binary.LittleEndian.Uint32(b[1:]))
	r.Unit = int32(binary.LittleEndian.Uint32(b[5:]))
	r.Iter = int64(binary.LittleEndian.Uint64(b[9:]))
	r.Aux = math.Float64frombits(binary.LittleEndian.Uint64(b[17:]))
	n := int(binary.LittleEndian.Uint32(b[25:]))
	if r.Kind == 0 || r.Kind > recKindMax {
		return Record{}, 0, fmt.Errorf("durable: unknown record kind %d", r.Kind)
	}
	if n < 0 || n > maxVals {
		return Record{}, 0, fmt.Errorf("durable: record claims %d values (max %d)", n, maxVals)
	}
	total := recordMinSize + 4*n
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("durable: torn record body (%d of %d bytes)", len(b), total)
	}
	want := binary.LittleEndian.Uint32(b[total-recordCRCSize:])
	if crc32.ChecksumIEEE(b[:total-recordCRCSize]) != want {
		return Record{}, 0, fmt.Errorf("durable: record CRC mismatch")
	}
	if n > 0 {
		r.Vals = make([]float32, n)
		for i := range r.Vals {
			r.Vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[recordHeaderSize+4*i:]))
		}
	}
	return r, total, nil
}
