package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
)

// refDecode is the reference the Receiver is held to: the copy-everything
// algorithm it replaced, run over the whole input at once, plus the rule that
// a frame holding a whole frame past its header was cut. It returns every
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
		if n > MaxFrameSize || len(buf) < total || !bytes.Equal(buf[total-len(endMarker):total], endMarker) || holdsFrame(buf[:total]) {
			buf = buf[1:] // corrupt length, truncated, abandoned or cut: rescan one byte on
			skipped++
			continue
		}
		frames = append(frames, bytes.Clone(buf[headerLen:headerLen+n]))
		buf = buf[total:]
	}
}

// holdsFrame reports whether a whole frame starts past frame's header and
// ends inside it.
func holdsFrame(frame []byte) bool {
	for j := headerLen; j < len(frame); j++ {
		if FrameLen(frame[j:]) > 0 {
			return true
		}
	}
	return false
}

// cutStream scripts a stream of whole and cut frames from data. Each frame
// takes a control byte c and then up to c&63 payload bytes; a frame whose c
// is 0xC0 or more is cut after as many of its bytes as the next byte says,
// modulo its length. Payload bytes never equal a marker's first byte, so no
// marker appears but the frames' own. It returns the stream and the payloads
// of the whole frames after the last cut one.
func cutStream(data []byte) (stream []byte, tail [][]byte) {
	var b Batch
	for len(data) > 0 {
		c := data[0]
		n := min(int(c&63), len(data)-1)
		payload := bytes.Clone(data[1 : 1+n])
		data = data[1+n:]
		for i, v := range payload {
			if v == startMarker[0] || v == endMarker[0] {
				payload[i] = 0
			}
		}
		b.Reset()
		b.Append(payload)
		if c < 0xC0 || len(data) == 0 {
			stream = append(stream, b.buf...)
			tail = append(tail, payload)
			continue
		}
		stream = append(stream, b.buf[:int(data[0])%len(b.buf)]...)
		data, tail = data[1:], tail[:0]
	}
	return stream, tail
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
//     one frame is recovered — resync must always find its way back;
//   - read as a cutStream script, every whole frame after the last cut one
//     arrives, in order, however the reads chunk the stream: a cut frame
//     never holds back what follows it.
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
	// As cutStream scripts: a 40-byte frame cut after 30 bytes, then two
	// whole ones; a whole frame, then one cut inside its header.
	f.Add(append(append([]byte{0xE8}, bytes.Repeat([]byte{7}, 40)...), 30, 3, 'a', 'b', 'c', 0, 0x42, 'x', 'y'))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0xC4, 9, 9, 9, 9, 10})

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

		stream, tail := cutStream(data)
		for name, r := range map[string]io.Reader{
			"1 byte":  iotest.OneByteReader(bytes.NewReader(stream)),
			"7 bytes": &chunkReader{r: bytes.NewReader(stream), n: 7},
			"at once": bytes.NewReader(stream),
		} {
			var got [][]byte
			for rc := NewReceiver(r); ; {
				p, err := rc.Recv()
				if err != nil {
					break
				}
				got = append(got, bytes.Clone(p))
			}
			if len(got) < len(tail) {
				t.Fatalf("%s reads: %d frames arrived, but %d whole frames follow the last cut one", name, len(got), len(tail))
			}
			for i, p := range got[len(got)-len(tail):] {
				if !bytes.Equal(p, tail[i]) {
					t.Fatalf("%s reads: whole frame %d after the last cut is %x, want %x", name, i, p, tail[i])
				}
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
