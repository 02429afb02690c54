package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
)

// refDecode is the reference the Receiver is held to: the copy-everything
// algorithm it replaced, run over the whole input at once. It returns every
// recoverable payload (copied) and the bytes resynchronization discarded.
func refDecode(data []byte) (frames [][]byte, skipped int) {
	for buf := data; ; {
		i := bytes.Index(buf, startMarker)
		if i < 0 {
			// A potential marker prefix at the tail is kept, not skipped.
			return frames, skipped + max(0, len(buf)-(len(startMarker)-1))
		}
		skipped += i
		buf = buf[i:]
		if len(buf) < headerLen {
			return frames, skipped
		}
		n := int(binary.LittleEndian.Uint32(buf[len(startMarker):]))
		total := FrameOverhead + n
		if n > MaxFrameSize || len(buf) < total || !bytes.Equal(buf[total-len(endMarker):total], endMarker) {
			buf = buf[1:] // corrupt length, truncated or abandoned: rescan one byte on
			skipped++
			continue
		}
		frames = append(frames, bytes.Clone(buf[headerLen:headerLen+n]))
		buf = buf[total:]
	}
}

// FuzzRecv throws arbitrary byte streams at the resynchronizing receiver.
// The parser sits directly under a lossy conn, so its input is exactly
// "whatever survived the channel": truncated headers, frames whose length
// prefix swallowed the next frame, garbage that happens to contain marker
// bytes. Invariants under any input:
//
//   - Recv never panics and terminates with io.EOF;
//   - every returned payload respects MaxFrameSize, and frames cannot
//     outnumber the bytes that could physically encode them;
//   - Skipped never exceeds the input length;
//   - however the bytes are chunked by the reader (1 at a time, 7 at a time,
//     all at once), the payload sequence and Skipped equal refDecode's;
//   - a well-formed frame appended after the garbage guarantees at least
//     one frame is recovered — resync must always find its way back.
func FuzzRecv(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, []byte("speculative row payload")); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:9]) // header truncated inside the length prefix
	corruptLen := append([]byte(nil), valid.Bytes()...)
	corruptLen[11] = 0xFF // length prefix inflated past MaxFrameSize
	f.Add(corruptLen)
	cut := append(append([]byte(nil), valid.Bytes()[:15]...), valid.Bytes()...) // abandoned frame, then a full one
	f.Add(cut)
	f.Add(append([]byte("garbage prefix \xF0\x9F\xA6"), valid.Bytes()...))
	f.Add(append(append([]byte(nil), valid.Bytes()...), valid.Bytes()...))
	f.Add(append([]byte(nil), startMarker...)) // bare marker, nothing behind it

	f.Fuzz(func(t *testing.T, data []byte) {
		rc := NewReceiver(bytes.NewReader(data))
		frames := 0
		for {
			p, err := rc.Recv()
			if err != nil {
				if err != io.EOF {
					t.Fatalf("Recv returned non-EOF error on in-memory stream: %v", err)
				}
				break
			}
			if len(p) > MaxFrameSize {
				t.Fatalf("payload of %d bytes exceeds MaxFrameSize", len(p))
			}
			frames++
		}
		if min := FrameOverhead; frames > 0 && frames > len(data)/min {
			t.Fatalf("%d frames out of %d input bytes — below the %d-byte frame floor", frames, len(data), min)
		}
		if rc.Skipped > len(data) {
			t.Fatalf("skipped %d of %d input bytes", rc.Skipped, len(data))
		}

		want, wantSkipped := refDecode(data)
		for name, r := range map[string]io.Reader{
			"1 byte":  iotest.OneByteReader(bytes.NewReader(data)),
			"7 bytes": &chunkReader{r: bytes.NewReader(data), n: 7},
			"at once": bytes.NewReader(data),
		} {
			rc := NewReceiver(r)
			for i := 0; ; i++ {
				p, err := rc.Recv()
				if err != nil {
					if i != len(want) {
						t.Fatalf("%s reads: %d frames, reference decoder %d", name, i, len(want))
					}
					break
				}
				if i >= len(want) || !bytes.Equal(p, want[i]) {
					t.Fatalf("%s reads: frame %d differs from the reference decoder's", name, i)
				}
			}
			if rc.Skipped != wantSkipped {
				t.Fatalf("%s reads: skipped %d, reference decoder %d", name, rc.Skipped, wantSkipped)
			}
		}

		// Resync guarantee: however mangled the prefix, a trailing complete
		// frame means the stream holds at least one recoverable frame. (It
		// may not be *that* frame verbatim — crafted garbage can form a
		// valid frame overlapping it — but recovery can never come up empty.)
		rc2 := NewReceiver(io.MultiReader(bytes.NewReader(data), bytes.NewReader(valid.Bytes())))
		recovered := 0
		for {
			if _, err := rc2.Recv(); err != nil {
				break
			}
			recovered++
		}
		if recovered == 0 {
			t.Fatalf("receiver recovered nothing from %d garbage bytes + one valid frame", len(data))
		}
	})
}
