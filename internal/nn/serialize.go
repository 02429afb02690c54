package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Model checkpoint format: magic, version, matrix count, then each
// parameter matrix as rows/cols and row-major float32 data. Robots
// checkpoint the shared model periodically (the paper validates from
// checkpoints every 50 iterations), so the format is part of the library
// surface.
var checkpointMagic = [4]byte{'R', 'O', 'G', 'M'}

const checkpointVersion = 1

// AppendParams appends the model's checkpoint to dst, growing it at most
// once to the checkpoint's exact size.
func (s *Sequential) AppendParams(dst []byte) []byte {
	params := s.Params()
	n := len(checkpointMagic) + 4 + 4
	for _, p := range params {
		n += 4 + 4 + 4*len(p.Data)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, checkpointMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, checkpointVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(params)))
	for _, p := range params {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Cols))
		for _, v := range p.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// DecodeParams reads a checkpoint written by AppendParams from the head of
// b into the model; bytes past it are ignored. The architecture must match
// exactly. A short b fails as a reader would: io.EOF when it ends on a
// field boundary, io.ErrUnexpectedEOF inside a field.
func (s *Sequential) DecodeParams(b []byte) error {
	take := func(n int) ([]byte, error) {
		switch {
		case len(b) >= n:
			out := b[:n]
			b = b[n:]
			return out, nil
		case len(b) == 0:
			return nil, io.EOF
		}
		b = nil
		return nil, io.ErrUnexpectedEOF
	}
	u32 := func() (uint32, error) {
		f, err := take(4)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(f), nil
	}
	magic, err := take(len(checkpointMagic))
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if [4]byte(magic) != checkpointMagic {
		return fmt.Errorf("nn: not a ROG model checkpoint")
	}
	version, err := u32()
	if err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	count, err := u32()
	if err != nil {
		return err
	}
	params := s.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d matrices, model has %d", count, len(params))
	}
	for i, p := range params {
		rows, err := u32()
		if err != nil {
			return err
		}
		cols, err := u32()
		if err != nil {
			return err
		}
		if int(rows) != p.Rows || int(cols) != p.Cols {
			return fmt.Errorf("nn: matrix %d is %dx%d in checkpoint, %dx%d in model",
				i, rows, cols, p.Rows, p.Cols)
		}
		data, err := take(4 * len(p.Data))
		if err != nil {
			return fmt.Errorf("nn: matrix %d data: %w", i, err)
		}
		for j := range p.Data {
			p.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*j:]))
		}
	}
	return nil
}
