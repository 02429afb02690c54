package lossnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"rog/internal/transport"
)

// recvAll drains framed payloads from r until EOF.
func recvAll(t *testing.T, r io.Reader, out chan<- []byte) {
	t.Helper()
	rc := transport.NewReceiver(r)
	for {
		p, err := rc.Recv()
		if err == io.EOF {
			close(out)
			return
		}
		if err != nil {
			t.Errorf("recv: %v", err)
			close(out)
			return
		}
		out <- append([]byte(nil), p...) // a Recv view dies at the next Recv
	}
}

func TestConnDropsWholeFrames(t *testing.T) {
	a, b := net.Pipe()
	lossy := WrapConn(a, NewBernoulli(0.3, 11), nil)
	got := make(chan []byte, 256)
	go recvAll(t, b, got)

	const frames = 200
	for i := 0; i < frames; i++ {
		payload := []byte(fmt.Sprintf("frame-%03d", i))
		if err := transport.WriteFrame(lossy, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	lossy.Close()

	var received []string
	for p := range got {
		received = append(received, string(p))
	}
	drops, dropBytes := lossy.Dropped()
	if int(drops)+len(received) != frames {
		t.Fatalf("drops %d + received %d != %d sent", drops, len(received), frames)
	}
	if drops == 0 {
		t.Fatal("bernoulli(0.3) dropped nothing in 200 frames")
	}
	if dropBytes == 0 {
		t.Fatal("dropped frames counted no bytes")
	}
	// Survivors arrive intact and in order: frame indices strictly increase.
	last := -1
	for _, s := range received {
		var idx int
		if _, err := fmt.Sscanf(s, "frame-%d", &idx); err != nil {
			t.Fatalf("corrupt surviving frame %q", s)
		}
		if idx <= last {
			t.Fatalf("frame order violated: %d after %d", idx, last)
		}
		last = idx
	}
}

func TestConnDroppableFilter(t *testing.T) {
	a, b := net.Pipe()
	// Drop everything the filter admits: only payloads starting with 'R'
	// (after the 12-byte frame header) are droppable, mirroring how livenet
	// confines loss to row frames.
	rowOnly := func(frame []byte) bool { return len(frame) > 12 && frame[12] == 'R' }
	lossy := WrapConn(a, NewBernoulli(1.0, 1), rowOnly)
	got := make(chan []byte, 64)
	go recvAll(t, b, got)

	for i := 0; i < 10; i++ {
		if err := transport.WriteFrame(lossy, []byte("Rrow")); err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteFrame(lossy, []byte("Cctl")); err != nil {
			t.Fatal(err)
		}
	}
	lossy.Close()

	var ctl, row int
	for p := range got {
		switch p[0] {
		case 'R':
			row++
		case 'C':
			ctl++
		}
	}
	if row != 0 {
		t.Fatalf("%d row frames leaked through a rate-1.0 model", row)
	}
	if ctl != 10 {
		t.Fatalf("control frames dropped: got %d of 10", ctl)
	}
	if drops, _ := lossy.Dropped(); drops != 10 {
		t.Fatalf("Dropped() = %d, want 10", drops)
	}
}

func TestConnZeroModelPassesEverything(t *testing.T) {
	a, b := net.Pipe()
	lossy := WrapConn(a, NewBernoulli(0, 1), nil)
	got := make(chan []byte, 16)
	go recvAll(t, b, got)
	for i := 0; i < 5; i++ {
		if err := transport.WriteFrame(lossy, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lossy.Close()
	n := 0
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-got:
			if !ok {
				if n != 5 {
					t.Fatalf("received %d of 5 frames", n)
				}
				return
			}
			n++
		case <-deadline:
			t.Fatal("timed out")
		}
	}
}

// roomConn accepts room bytes in all, then fails the write it cuts short.
type roomConn struct {
	net.Conn
	room   int
	got    bytes.Buffer
	writes int
}

var errNoRoom = errors.New("no room")

func (c *roomConn) Write(b []byte) (int, error) {
	c.writes++
	n := min(len(b), c.room)
	c.room -= n
	c.got.Write(b[:n])
	if n < len(b) {
		return n, errNoRoom
	}
	return n, nil
}

// TestConnSplitsCoalescedWrite drives one buffer of six frames — C R C C R
// C, rows always lost — through Write: the survivors are forwarded in runs
// (one write per run, not per frame), and when the wire takes only part of
// a run the count returned is an offset into the caller's buffer, dropped
// frames included, so a sender mapping it back to whole frames
// (transport.Batch.Send) counts a lost frame as sent and the cut one as not.
func TestConnSplitsCoalescedWrite(t *testing.T) {
	var wire bytes.Buffer
	frame := func(p string) int { return transport.FrameOverhead + len(p) }
	for _, p := range []string{"C0", "Rrow1", "C2", "C3", "Rrow4", "C5"} {
		if err := transport.WriteFrame(&wire, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	buf := wire.Bytes()
	rowOnly := func(f []byte) bool { return len(f) > 12 && f[12] == 'R' }

	whole := &roomConn{room: len(buf)}
	lossy := WrapConn(whole, NewBernoulli(1.0, 1), rowOnly)
	if n, err := lossy.Write(buf); n != len(buf) || err != nil {
		t.Fatalf("Write = %d, %v; want all %d bytes", n, err, len(buf))
	}
	if whole.writes != 3 {
		t.Fatalf("%d underlying writes for the runs C0 | C2 C3 | C5, want 3", whole.writes)
	}
	if d, db := lossy.Dropped(); d != 2 || db != int64(2*frame("Rrow1")) {
		t.Fatalf("Dropped() = %d frames, %d bytes; want the 2 row frames", d, db)
	}
	rc := transport.NewReceiver(&whole.got)
	for _, want := range []string{"C0", "C2", "C3", "C5"} {
		if p, err := rc.Recv(); err != nil || string(p) != want {
			t.Fatalf("survivor %q, err %v; want %q", p, err, want)
		}
	}

	// The wire takes C0, C2 and 5 bytes of C3.
	cut := &roomConn{room: 2*frame("C0") + 5}
	lossy = WrapConn(cut, NewBernoulli(1.0, 1), rowOnly)
	n, err := lossy.Write(buf)
	if want := 2*frame("C0") + frame("Rrow1") + 5; n != want || !errors.Is(err, errNoRoom) {
		t.Fatalf("cut Write = %d, %v; want offset %d (the dropped row counted as written) and the wire's error", n, err, want)
	}
}
