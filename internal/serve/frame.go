package serve

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The serve wire protocol: one request or reply per transport frame (the
// marker-framed payload transport.WriteFrame/Receiver carry), so the
// lossnet channel wrapper drops whole serve calls the same way it drops
// whole training pushes. Payloads are little-endian with fixed-width
// fields throughout — roglint's wireframe pass checks the structs below.
//
// Request: 'Q' | id u64 | minVersion u64 (two's-complement i64) | n u32 | n × f32
// Reply:   'S' | id u64 | version u64 (i64) | seq u64 | n u32 | n × f32

const (
	kindRequest = 'Q'
	kindReply   = 'S'
)

// MaxVectorLen bounds the feature/output vector a frame may carry; longer
// counts are rejected as corruption before any allocation.
const MaxVectorLen = 1 << 16

// RequestFrame is the decoded form of one inference request on the wire.
type RequestFrame struct {
	ID         uint64
	MinVersion int64
	Input      []float32
}

// ReplyFrame is the decoded form of one inference reply on the wire.
type ReplyFrame struct {
	ID      uint64
	Version int64
	Seq     uint64
	Output  []float32
}

// EncodeRequest serializes the frame.
func EncodeRequest(f RequestFrame) []byte {
	return appendRequest(make([]byte, 0, 1+8+8+4+4*len(f.Input)), f)
}

// appendRequest appends the frame's encoding to buf.
func appendRequest(buf []byte, f RequestFrame) []byte {
	buf = append(buf, kindRequest)
	buf = binary.LittleEndian.AppendUint64(buf, f.ID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.MinVersion))
	return appendVector(buf, f.Input)
}

// DecodeRequest parses a request payload, rejecting truncated, oversized
// and trailing-garbage encodings.
func DecodeRequest(b []byte) (RequestFrame, error) { return decodeRequestInto(b, nil) }

// decodeRequestInto is DecodeRequest with the input decoded into dst's
// memory when it has the capacity: the frame's Input aliases dst then.
func decodeRequestInto(b []byte, dst []float32) (RequestFrame, error) {
	if len(b) < 1+8+8+4 {
		return RequestFrame{}, fmt.Errorf("serve: request frame truncated at %d bytes", len(b))
	}
	if b[0] != kindRequest {
		return RequestFrame{}, fmt.Errorf("serve: frame kind %#x is not a request", b[0])
	}
	f := RequestFrame{
		ID:         binary.LittleEndian.Uint64(b[1:]),
		MinVersion: int64(binary.LittleEndian.Uint64(b[9:])),
	}
	vec, err := decodeVectorInto(b[17:], dst)
	if err != nil {
		return RequestFrame{}, fmt.Errorf("serve: request %d: %w", f.ID, err)
	}
	f.Input = vec
	return f, nil
}

// EncodeReply serializes the frame.
func EncodeReply(f ReplyFrame) []byte {
	return appendReply(make([]byte, 0, 1+8+8+8+4+4*len(f.Output)), f)
}

// appendReply appends the frame's encoding to buf.
func appendReply(buf []byte, f ReplyFrame) []byte {
	buf = append(buf, kindReply)
	buf = binary.LittleEndian.AppendUint64(buf, f.ID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Version))
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	return appendVector(buf, f.Output)
}

// DecodeReply parses a reply payload with the same strictness as
// DecodeRequest.
func DecodeReply(b []byte) (ReplyFrame, error) { return decodeReplyInto(b, nil) }

// decodeReplyInto is DecodeReply with the output decoded into dst's memory
// when it has the capacity: the frame's Output aliases dst then.
func decodeReplyInto(b []byte, dst []float32) (ReplyFrame, error) {
	if len(b) < 1+8+8+8+4 {
		return ReplyFrame{}, fmt.Errorf("serve: reply frame truncated at %d bytes", len(b))
	}
	if b[0] != kindReply {
		return ReplyFrame{}, fmt.Errorf("serve: frame kind %#x is not a reply", b[0])
	}
	f := ReplyFrame{
		ID:      binary.LittleEndian.Uint64(b[1:]),
		Version: int64(binary.LittleEndian.Uint64(b[9:])),
		Seq:     binary.LittleEndian.Uint64(b[17:]),
	}
	vec, err := decodeVectorInto(b[25:], dst)
	if err != nil {
		return ReplyFrame{}, fmt.Errorf("serve: reply %d: %w", f.ID, err)
	}
	f.Output = vec
	return f, nil
}

// appendVector encodes a length-prefixed float32 vector.
func appendVector(buf []byte, v []float32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return buf
}

// decodeVectorInto parses a length-prefixed float32 vector occupying all of
// b into dst, allocating only when dst is too small.
func decodeVectorInto(b []byte, dst []float32) ([]float32, error) {
	n := int(binary.LittleEndian.Uint32(b))
	if n > MaxVectorLen {
		return nil, fmt.Errorf("vector length %d exceeds max %d", n, MaxVectorLen)
	}
	if len(b) != 4+4*n {
		return nil, fmt.Errorf("vector of %d floats needs %d payload bytes, have %d", n, 4+4*n, len(b))
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	v := dst[:n]
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4+4*i:]))
	}
	return v, nil
}
