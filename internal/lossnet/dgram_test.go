package lossnet

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// burstPayloads builds n distinguishable payloads.
func burstPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}
	return out
}

// runBurst ships payloads from a fresh sender to a fresh receiver over the
// given conns and returns (delivered flags, received payloads, lost count).
func runBurst(t *testing.T, sc, rc net.PacketConn, payloads [][]byte, reliable func(int) bool) ([]bool, [][]byte, int) {
	t.Helper()
	s := NewBurstSender(sc, rc.LocalAddr())
	r := NewBurstReceiver(rc)
	type recvResult struct {
		got  [][]byte
		lost int
		err  error
	}
	done := make(chan recvResult, 1)
	go func() {
		var got [][]byte
		lost, err := r.RecvBurst(time.Now().Add(20*time.Second), func(p []byte) {
			cp := make([]byte, len(p))
			copy(cp, p)
			got = append(got, cp)
		})
		done <- recvResult{got, lost, err}
	}()
	delivered, err := s.SendBurst(payloads, reliable, time.Now().Add(20*time.Second))
	if err != nil {
		t.Fatalf("SendBurst: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("RecvBurst: %v", res.err)
	}
	return delivered, res.got, res.lost
}

func TestBurstLossless(t *testing.T) {
	a, b := PacketPipe(nil, nil)
	defer a.Close()
	defer b.Close()
	payloads := burstPayloads(50)
	delivered, got, lost := runBurst(t, a, b, payloads, nil)
	if lost != 0 {
		t.Fatalf("lossless burst reported %d lost", lost)
	}
	for i, d := range delivered {
		if !d {
			t.Fatalf("payload %d not delivered on lossless pipe", i)
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("received %d of %d payloads", len(got), len(payloads))
	}
	for i, p := range got {
		if string(p) != string(payloads[i]) {
			t.Fatalf("payload %d corrupted or reordered: %q", i, p)
		}
	}
}

func TestBurstSelectiveReliabilityUnderLoss(t *testing.T) {
	// Bursty loss on the data direction only; acks travel clean so the
	// protocol's loss accounting — not ack luck — is what's under test.
	a, b := PacketPipe(NewGilbertElliott(0.25, 4, 42), nil)
	defer a.Close()
	defer b.Close()
	payloads := burstPayloads(120)
	reliable := func(i int) bool { return i < 40 } // importance prefix
	delivered, got, lost := runBurst(t, a, b, payloads, reliable)

	// Every reliable payload must have been delivered, whatever the channel did.
	for i := 0; i < 40; i++ {
		if !delivered[i] {
			t.Fatalf("reliable payload %d reported lost", i)
		}
	}
	// Sender and receiver must agree exactly: delivered flags vs payloads
	// handed over, lost flags vs gap count.
	wantLost := 0
	deliveredSet := make(map[string]bool)
	for i, d := range delivered {
		if d {
			deliveredSet[string(payloads[i])] = true
		} else {
			wantLost++
		}
	}
	if lost != wantLost {
		t.Fatalf("receiver counted %d lost, sender abandoned %d", lost, wantLost)
	}
	if len(got) != len(payloads)-wantLost {
		t.Fatalf("received %d payloads, want %d", len(got), len(payloads)-wantLost)
	}
	for _, p := range got {
		if !deliveredSet[string(p)] {
			t.Fatalf("receiver got %q which the sender thinks was lost", p)
		}
	}
	// In-order delivery of what survived.
	last := -1
	for _, p := range got {
		var idx int
		fmt.Sscanf(string(p), "payload-%d", &idx)
		if idx <= last {
			t.Fatalf("delivery order violated: %d after %d", idx, last)
		}
		last = idx
	}
}

func TestBurstAbandonHook(t *testing.T) {
	// Lossy data direction with a mostly best-effort burst: some payloads
	// must be abandoned, and the burst must still settle on both ends.
	a, b := PacketPipe(NewGilbertElliott(0.25, 4, 42), nil)
	defer a.Close()
	defer b.Close()
	payloads := burstPayloads(120)
	s := NewBurstSender(a, b.LocalAddr())
	r := NewBurstReceiver(b)
	done := make(chan error, 1)
	go func() {
		_, err := r.RecvBurst(time.Now().Add(20*time.Second), func([]byte) {})
		done <- err
	}()
	if _, err := s.SendBurst(payloads, func(i int) bool { return i < 10 }, time.Now().Add(20*time.Second)); err != nil {
		t.Fatalf("SendBurst: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RecvBurst: %v", err)
	}
	if s.Stats.Abandons == 0 {
		t.Error("no abandons under 25% loss — the abandon path went unexercised")
	}
}

// TestBurstNackStormBounded is the regression test for the tier-1 flake
// TestBurstAbandonHook used to hit: answering every NACK of every ack with
// a repeat multiplied each loss into thousands of abandon notices, the
// acks they provoked overflowed the sender's 1024-slot inbox, the ack that
// settled the burst was among the drops, and the sender spun to its
// deadline against a receiver that had already returned. With repeats
// driven by the RTO alone, the same burst (GE 0.25/4 seed 42, clean ack
// direction) settles every time and both directions stay within a small
// multiple of the payload count: one repeat per NACKed sequence, plus one
// per still-unsettled sequence for every RTO round a lost abandon notice
// costs (the storm was over a hundredfold).
func TestBurstNackStormBounded(t *testing.T) {
	const payloadCount, rounds, factor = 120, 60, 8
	payloads := burstPayloads(payloadCount)
	for round := 0; round < rounds; round++ {
		a, b := PacketPipe(NewGilbertElliott(0.25, 4, 42), nil)
		s := NewBurstSender(a, b.LocalAddr())
		r := NewBurstReceiver(b)
		done := make(chan error, 1)
		go func() {
			_, err := r.RecvBurst(time.Now().Add(5*time.Second), func([]byte) {})
			done <- err
		}()
		_, err := s.SendBurst(payloads, func(i int) bool { return i < 10 }, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("round %d: SendBurst: %v (sender %+v)", round, err, s.Stats)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: RecvBurst: %v", round, err)
		}
		if s.Stats.Abandons > factor*payloadCount {
			t.Fatalf("round %d: %d abandon notices for %d payloads", round, s.Stats.Abandons, payloadCount)
		}
		if r.Stats.AcksSent > factor*payloadCount {
			t.Fatalf("round %d: %d acks for %d payloads", round, r.Stats.AcksSent, payloadCount)
		}
		a.Close()
		b.Close()
	}
}

func TestBurstAllReliableUnderLoss(t *testing.T) {
	a, b := PacketPipe(NewGilbertElliott(0.3, 4, 7), nil)
	defer a.Close()
	defer b.Close()
	payloads := burstPayloads(60)
	delivered, got, lost := runBurst(t, a, b, payloads, func(int) bool { return true })
	if lost != 0 {
		t.Fatalf("all-reliable burst lost %d payloads", lost)
	}
	for i, d := range delivered {
		if !d {
			t.Fatalf("payload %d undelivered in all-reliable mode", i)
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("received %d of %d", len(got), len(payloads))
	}
}

func TestBurstSequencePersistsAcrossBursts(t *testing.T) {
	// Loss on both directions: dropped acks force retransmissions and
	// duplicate handling across burst boundaries. The receiver loops
	// RecvBurst so late retransmits of a finished burst get re-acked.
	a, b := PacketPipe(NewBernoulli(0.15, 3), NewBernoulli(0.15, 4))
	defer a.Close()
	defer b.Close()
	s := NewBurstSender(a, b.LocalAddr())
	r := NewBurstReceiver(b)

	type result struct {
		got  int
		lost int
	}
	results := make(chan result, 16)
	stop := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			got := 0
			lost, err := r.RecvBurst(time.Now().Add(500*time.Millisecond), func([]byte) { got++ })
			if err == nil {
				results <- result{got, lost}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	totalFolded := 0
	const bursts, per = 5, 30
	for i := 0; i < bursts; i++ {
		delivered, err := s.SendBurst(burstPayloads(per), func(j int) bool { return j < 10 }, time.Now().Add(20*time.Second))
		if err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
		res := <-results
		wantLost := 0
		for _, d := range delivered {
			if !d {
				wantLost++
			}
		}
		if res.lost != wantLost || res.got != per-wantLost {
			t.Fatalf("burst %d: receiver saw got=%d lost=%d, sender delivered=%d lost=%d",
				i, res.got, res.lost, per-wantLost, wantLost)
		}
		totalFolded += wantLost
	}
	close(stop)
	<-recvDone
	if s.Stats.Retransmits == 0 {
		t.Fatal("15% loss over 5 bursts triggered no retransmissions")
	}
	t.Logf("stats: sender %+v receiver %+v folded=%d", s.Stats, r.Stats, totalFolded)
}

func TestBurstOverRealUDP(t *testing.T) {
	sc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP on this host: %v", err)
	}
	defer sc.Close()
	rc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP on this host: %v", err)
	}
	defer rc.Close()
	payloads := burstPayloads(40)
	delivered, got, _ := runBurst(t, sc, rc, payloads, func(i int) bool { return i%2 == 0 })
	// Loopback UDP is effectively lossless; everything should arrive, via
	// first transmission or recovery.
	for i, d := range delivered {
		if !d {
			t.Fatalf("payload %d lost on loopback UDP", i)
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("received %d of %d on loopback UDP", len(got), len(payloads))
	}
}

func TestBurstDeadline(t *testing.T) {
	// A silent peer (no receiver at all) must produce ErrBurstTimeout, not a
	// hang.
	a, b := PacketPipe(nil, nil)
	defer a.Close()
	defer b.Close()
	s := NewBurstSender(a, b.LocalAddr())
	_, err := s.SendBurst(burstPayloads(3), nil, time.Now().Add(200*time.Millisecond))
	if err != ErrBurstTimeout {
		t.Fatalf("err = %v, want ErrBurstTimeout", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := dgramHeader{Kind: dgramAck, Flags: dgramFlagReliable, Seq: 0xDEADBEEF, Ack: 42, NackCount: 3, LostCount: 7}
	var buf [dgramHeaderSize]byte
	h.encode(buf[:])
	back, ok := decodeHeader(buf[:])
	if !ok || back != h {
		t.Fatalf("round trip: %+v → %+v (ok=%v)", h, back, ok)
	}
	if _, ok := decodeHeader(buf[:dgramHeaderSize-1]); ok {
		t.Fatal("truncated header decoded")
	}
}

// TestStaleMaxSeenNacks: after a completed burst, maxSeen goes stale below
// the frontier. In the next burst a gap must produce exactly the gap's
// NACKs, not 128 bogus NACKs for never-sent sequences.
func TestStaleMaxSeenNacks(t *testing.T) {
	a, b := PacketPipe(nil, nil)
	defer a.Close()
	defer b.Close()
	r := NewBurstReceiver(b)

	send := func(kind uint8, seq uint32, payload []byte) {
		buf := make([]byte, dgramHeaderSize+len(payload))
		dgramHeader{Kind: kind, Seq: seq}.encode(buf)
		copy(buf[dgramHeaderSize:], payload)
		if _, err := a.WriteTo(buf, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func() dgramHeader {
		buf := make([]byte, 65536)
		a.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := a.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := decodeHeader(buf[:n])
		if !ok {
			t.Fatal("bad ack")
		}
		return h
	}

	// Burst 1: seqs 1,2 data + 3 end, all in order.
	go func() {
		send(dgramData, 1, []byte("p1"))
		send(dgramData, 2, []byte("p2"))
		send(dgramEnd, 3, nil)
	}()
	if _, err := r.RecvBurst(time.Now().Add(2*time.Second), func([]byte) {}); err != nil {
		t.Fatalf("burst 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		readAck()
	}
	t.Logf("after burst 1: frontier=%d maxSeen=%d", r.frontier, r.maxSeen)

	// Burst 2: seq 4 arrives, seq 5 is "lost", seq 6 arrives -> gap {5}.
	done := make(chan error, 1)
	go func() {
		_, err := r.RecvBurst(time.Now().Add(500*time.Millisecond), func([]byte) {})
		done <- err
	}()
	send(dgramData, 4, []byte("p4"))
	h1 := readAck()
	send(dgramData, 6, []byte("p6"))
	h2 := readAck()
	t.Logf("ack after seq4: ack=%d nacks=%d lost=%d", h1.Ack, h1.NackCount, h1.LostCount)
	t.Logf("ack after seq6: ack=%d nacks=%d lost=%d (want 1 nack for seq 5)", h2.Ack, h2.NackCount, h2.LostCount)
	<-done
	if h2.NackCount != 1 {
		t.Fatalf("expected exactly 1 NACK (seq 5), got %d", h2.NackCount)
	}
}
