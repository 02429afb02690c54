package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteRecvRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, []byte("world"), {1, 2, 3}}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	rc := NewReceiver(&buf)
	for i, want := range payloads {
		got, err := rc.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q != %q", i, got, want)
		}
	}
	if _, err := rc.Recv(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if rc.Skipped != 0 {
		t.Fatalf("clean stream skipped %d bytes", rc.Skipped)
	}
}

func TestRecvSkipsLeadingGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("noise noise noise"))
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(&buf)
	got, err := rc.Recv()
	if err != nil || string(got) != "payload" {
		t.Fatalf("got %q err %v", got, err)
	}
	if rc.Skipped == 0 {
		t.Fatal("garbage not counted as skipped")
	}
}

func TestRecvSkipsAbandonedPartialFrame(t *testing.T) {
	// Simulate the paper's discarded speculative transmission: a frame is
	// cut off mid-payload or inside its end marker, then a fresh complete
	// frame follows. Cut one byte short, the frame used to take the fresh
	// frame's first byte as its last and leave it without a start marker.
	var full bytes.Buffer
	if err := WriteFrame(&full, bytes.Repeat([]byte{0xAB}, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, short := range []int{full.Len() - 300, 8, 7, 6, 5, 4, 3, 2, 1} {
		cut := full.Bytes()[:full.Len()-short]
		var stream bytes.Buffer
		stream.Write(cut)
		if err := WriteFrame(&stream, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		rc := NewReceiver(&stream)
		got, err := rc.Recv()
		if err != nil || string(got) != "fresh" {
			t.Fatalf("cut %d bytes short: got %d bytes, err %v (skipped=%d)", short, len(got), err, rc.Skipped)
		}
	}
}

func TestRecvResyncsOnCorruptLength(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(startMarker)
	stream.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	if err := WriteFrame(&stream, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(&stream)
	got, err := rc.Recv()
	if err != nil || string(got) != "ok" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestMarkerBytesInsidePayload(t *testing.T) {
	// A payload containing the start marker itself must survive.
	payload := append(append([]byte("pre"), startMarker...), []byte("post")...)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(&buf)
	got, err := rc.Recv()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("marker-in-payload broken: %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(a, b, c []byte) bool {
		var buf bytes.Buffer
		for _, p := range [][]byte{a, b, c} {
			if err := WriteFrame(&buf, p); err != nil {
				return false
			}
		}
		rc := NewReceiver(&buf)
		for _, want := range [][]byte{a, b, c} {
			got, err := rc.Recv()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSendFramesAllDelivered(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	errCh := make(chan error, 1)
	sentCh := make(chan int, 1)
	go func() {
		n, err := SendFrames(client, payloads, time.Time{})
		sentCh <- n
		errCh <- err
	}()
	rc := NewReceiver(server)
	for _, want := range payloads {
		got, err := rc.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("recv %q err %v", got, err)
		}
	}
	if n := <-sentCh; n != 3 {
		t.Fatalf("sent=%d", n)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestSendFramesTimeoutThenResync(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	big := bytes.Repeat([]byte{7}, 1<<16)
	many := make([][]byte, 50)
	for i := range many {
		many[i] = big
	}

	// Reader consumes slowly at first so the sender's deadline fires
	// mid-stream (net.Pipe is unbuffered: writes block until read).
	readerStarted := make(chan struct{})
	var received [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		rc := NewReceiver(server)
		close(readerStarted)
		for i := 0; ; i++ {
			if i < 3 {
				// Throttle the first frames so the sender's deadline fires
				// mid-stream (net.Pipe writes block until read).
				time.Sleep(25 * time.Millisecond)
			}
			p, err := rc.Recv()
			if err != nil {
				return
			}
			received = append(received, bytes.Clone(p)) // a view dies at the next Recv
		}
	}()
	<-readerStarted

	sent, err := SendFrames(client, many, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v (sent=%d)", err, sent)
	}
	if sent >= len(many) {
		t.Fatal("timeout but everything sent")
	}

	// After the abandoned frame, a fresh send must still be readable: the
	// receiver resyncs past the fragment.
	if _, err := SendFrames(client, [][]byte{[]byte("after-timeout")}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	if len(received) == 0 {
		t.Fatal("nothing received")
	}
	last := received[len(received)-1]
	if !bytes.Equal(last, []byte("after-timeout")) {
		t.Fatalf("resync failed; last frame = %d bytes", len(last))
	}
	// The byte count the cut Write reported names exactly the frames that
	// left whole: the receiver got those, skipped the fragment, then the
	// fresh frame.
	if got := len(received) - 1; got != sent {
		t.Fatalf("sender counted %d whole frames, receiver got %d before the fragment", sent, got)
	}
}

func TestFrameOverheadConstant(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 100+FrameOverhead {
		t.Fatalf("overhead=%d want %d", buf.Len()-100, FrameOverhead)
	}
}

// TestSendCutCountsWholeFrames is the speculative cut (Algo. 4) at the byte
// level: the peer takes k frames and a few bytes of the next, then stops.
// Send under a deadline must report exactly k frames sent and ErrTimeout —
// the partial tail is the abandoned frame — and a following send without a
// deadline must be readable past the fragment.
func TestSendCutCountsWholeFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	const frames, k, body = 20, 7, 40
	var b Batch
	for i := 0; i < frames; i++ {
		b.End(append(b.Begin(), bytes.Repeat([]byte{byte(i)}, body)...))
	}
	if b.Len() != frames {
		t.Fatalf("batch holds %d frames, want %d", b.Len(), frames)
	}

	taken := make([]byte, k*(body+FrameOverhead)+5)
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(server, taken)
		read <- err
	}()
	sent, err := b.Send(client, 0, b.Len(), time.Now().Add(20*time.Millisecond))
	if !errors.Is(err, ErrTimeout) || sent != k {
		t.Fatalf("Send = %d, %v; want %d whole frames and ErrTimeout", sent, err, k)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}

	// Complete frames k and k+1 regardless, the way sendPlanned completes a
	// plan's floor, then close.
	go func() {
		next, err := b.Send(client, sent, k+2, time.Time{})
		if err != nil || next != k+2 {
			t.Errorf("undeadlined Send = %d, %v; want %d", next, err, k+2)
		}
		client.Close()
	}()
	rc := NewReceiver(io.MultiReader(bytes.NewReader(taken), server))
	for want := 0; want < k+2; want++ {
		p, err := rc.Recv()
		if err != nil || len(p) != body || p[0] != byte(want) {
			t.Fatalf("frame %d: got %v, err %v", want, p, err)
		}
	}
	if _, err := rc.Recv(); err != io.EOF {
		t.Fatalf("want EOF after the resent frames, got %v", err)
	}
	if rc.Skipped != 5 {
		t.Fatalf("skipped %d bytes, want the 5-byte fragment", rc.Skipped)
	}
}

// TestBatchRefusesOversizedFrame: the refused frame is taken back out and
// the Send that follows fails without writing.
func TestBatchRefusesOversizedFrame(t *testing.T) {
	var b Batch
	b.Append([]byte("fits"))
	b.End(append(b.Begin(), make([]byte, MaxFrameSize+1)...))
	if b.Len() != 1 {
		t.Fatalf("batch holds %d frames after a refusal, want 1", b.Len())
	}
	var w bytes.Buffer
	if sent, err := b.write(&w, 0, b.Len()); err == nil || sent != 0 || w.Len() != 0 {
		t.Fatalf("write after a refusal = %d, %v with %d bytes out", sent, err, w.Len())
	}
	b.Reset()
	_ = append(b.Begin(), "never ended"...)
	b.Append([]byte("fits"))
	if _, err := b.write(&w, 0, 1); err != nil {
		t.Fatalf("Reset did not clear the refusal: %v", err)
	}
	if got, err := NewReceiver(&w).Recv(); err != nil || string(got) != "fits" || w.Len() != 0 {
		t.Fatalf("after an abandoned Begin: got %q, err %v, %d stray bytes", got, err, w.Len())
	}
}

func TestFrameLen(t *testing.T) {
	var two bytes.Buffer
	for _, p := range []string{"first", "second!"} {
		if err := WriteFrame(&two, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	b := two.Bytes()
	first := FrameOverhead + len("first")
	if got := FrameLen(b); got != first {
		t.Fatalf("FrameLen = %d, want %d", got, first)
	}
	if got := FrameLen(b[first:]); got != FrameOverhead+len("second!") {
		t.Fatalf("second frame: FrameLen = %d", got)
	}
	for name, frag := range map[string][]byte{
		"empty":         nil,
		"cut tail":      b[:first-1],
		"mid-frame":     b[1:],
		"bad end":       append(append([]byte(nil), b[:first-1]...), 0),
		"absurd length": append(append(append([]byte(nil), startMarker...), 0xFF, 0xFF, 0xFF, 0xFF), b...),
	} {
		if got := FrameLen(frag); got != 0 {
			t.Errorf("%s: FrameLen = %d, want 0", name, got)
		}
	}
}

// TestRecvViewValidUntilNextRecv pins the lifetime Recv documents: the
// payload is a view of the receiver's buffer, intact until the next Recv
// and only until then.
func TestRecvViewValidUntilNextRecv(t *testing.T) {
	var stream bytes.Buffer
	for _, p := range []string{"aaaa", "bbbb"} {
		if err := WriteFrame(&stream, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	rc := NewReceiver(&stream)
	first, err := rc.Recv()
	if err != nil || string(first) != "aaaa" {
		t.Fatalf("first = %q, %v", first, err)
	}
	if len(first) != cap(first) {
		t.Fatal("view leaves room to append into the receiver's backlog")
	}
	second, err := rc.Recv()
	if err != nil || string(second) != "bbbb" || string(first) != "aaaa" {
		t.Fatalf("second = %q, %v (first now %q)", second, err, first)
	}
	// Both frames arrived in one read, so the buffer is drained: the next
	// fill starts over at its front, over the first view.
	if err := WriteFrame(&stream, []byte("cccc")); err != nil {
		t.Fatal(err)
	}
	rc.eof = false // the bytes.Buffer had run dry; it has data again
	if third, err := rc.Recv(); err != nil || string(third) != "cccc" {
		t.Fatalf("third = %q, %v", third, err)
	}
	if string(first) == "aaaa" {
		t.Fatal("the buffer was not reused: Recv copies somewhere")
	}
}

// TestRecvFrameLargerThanBuffer: a 1 MB frame outgrows the initial buffer
// many times over, between two small frames that must survive the moves.
func TestRecvFrameLargerThanBuffer(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	want := [][]byte{[]byte("before"), big, []byte("after")}
	var stream bytes.Buffer
	for _, p := range want {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	rc := NewReceiver(&chunkReader{r: &stream, n: 5000})
	for i, w := range want {
		got, err := rc.Recv()
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("frame %d: %d bytes, err %v", i, len(got), err)
		}
	}
	if rc.Skipped != 0 {
		t.Fatalf("clean stream skipped %d bytes", rc.Skipped)
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestFrameRoundtripDoesNotAllocate guards the steady state of both ends:
// WriteFrame frames into a pooled Batch and Recv returns a view, so a frame
// written and received costs no allocation.
func TestFrameRoundtripDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	var stream bytes.Buffer
	rc := NewReceiver(&stream)
	payload := bytes.Repeat([]byte{0x5A}, 33)
	roundtrip := func() {
		if err := WriteFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
		rc.eof = false // the bytes.Buffer ran dry after the last frame
		if got, err := rc.Recv(); err != nil || len(got) != len(payload) {
			t.Fatalf("got %d bytes, err %v", len(got), err)
		}
	}
	roundtrip() // grow the receiver's buffer and the pooled batch once
	if allocs := testing.AllocsPerRun(200, roundtrip); allocs != 0 {
		t.Fatalf("WriteFrame+Recv allocates %.1f times per frame, want 0", allocs)
	}
}
