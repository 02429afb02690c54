package serve

import (
	"math"
	"strings"
	"testing"
)

func TestRequestFrameRoundTrip(t *testing.T) {
	cases := []RequestFrame{
		{ID: 1, MinVersion: 0, Input: []float32{1, 2, 3}},
		{ID: 1<<63 + 7, MinVersion: -3, Input: nil},
		{ID: 42, MinVersion: 1 << 40, Input: make([]float32, 257)},
	}
	for _, want := range cases {
		got, err := DecodeRequest(EncodeRequest(want))
		if err != nil {
			t.Fatalf("roundtrip %+v: %v", want, err)
		}
		if got.ID != want.ID || got.MinVersion != want.MinVersion || len(got.Input) != len(want.Input) {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got, want)
		}
		for i := range want.Input {
			if got.Input[i] != want.Input[i] {
				t.Fatalf("input[%d] = %v, want %v", i, got.Input[i], want.Input[i])
			}
		}
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	want := ReplyFrame{ID: 9, Version: 12, Seq: 4, Output: []float32{-0.5, 3.25}}
	got, err := DecodeReply(EncodeReply(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Version != want.Version || got.Seq != want.Seq {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, want)
	}
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Fatalf("output[%d] = %v, want %v", i, got.Output[i], want.Output[i])
		}
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	valid := EncodeRequest(RequestFrame{ID: 7, MinVersion: 2, Input: []float32{1, 2}})
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"header cut", valid[:10], "truncated"},
		{"wrong kind", EncodeReply(ReplyFrame{ID: 7}), "not a request"},
		{"vector cut", valid[:len(valid)-3], "payload bytes"},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xAA), "payload bytes"},
		{"inflated length", func() []byte {
			b := append([]byte(nil), valid...)
			b[17], b[18], b[19], b[20] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}(), "exceeds max"},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeReply(valid); err == nil || !strings.Contains(err.Error(), "not a reply") {
		t.Fatalf("reply decode of a request: err = %v", err)
	}
	if _, err := DecodeReply(valid[:4]); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("reply decode of a stub: err = %v", err)
	}
}

// FuzzServeFrameDecode mirrors transport's FuzzRecv for the serve payload
// layer: the decoders must never panic, and anything they accept must
// re-encode to the identical byte string (the frames are canonical — one
// encoding per value). The scratch forms the connection paths use are held
// to the allocating ones: each accepted frame is decoded again into one
// dirty buffer of fuzzed capacity, which must yield the same bits (NaN
// payloads included) in that buffer's memory whenever it is large enough,
// and the append form must re-encode it after a prefix it leaves alone.
func FuzzServeFrameDecode(f *testing.F) {
	seeds := [][]byte{
		EncodeRequest(RequestFrame{ID: 3, MinVersion: 1, Input: []float32{0.5, -2}}),
		EncodeReply(ReplyFrame{ID: 3, Version: 5, Seq: 2, Output: []float32{1}}),
		EncodeRequest(RequestFrame{ID: 1}),
		{},
		{'Q'},
		{'S', 1, 2, 3},
		EncodeRequest(RequestFrame{ID: 4, Input: []float32{float32(math.NaN()), math.Float32frombits(0x7FA0_0001), float32(math.Copysign(0, -1))}}),
	}
	truncated := EncodeRequest(RequestFrame{ID: 8, Input: []float32{9, 9, 9}})
	seeds = append(seeds, truncated[:len(truncated)-2])
	inflated := EncodeReply(ReplyFrame{ID: 8, Output: []float32{1, 2}})
	seeds = append(seeds, append(inflated[:25], 0xFF, 0xFF, 0xFF, 0xFF))
	seeds = append(seeds, append([]byte("garbage \xF0\x9F"), EncodeRequest(RequestFrame{ID: 2})...))
	for i, b := range seeds {
		f.Add(b, uint16(i))
	}

	prefix := []byte{0xEE, 0xEE}
	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		dirty := make([]float32, capacity%1024)
		for i := range dirty {
			dirty[i] = math.Float32frombits(0x7FC0_0000 | uint32(i))
		}
		// check holds a decode into dirty to the allocating decoder's want.
		check := func(got []float32, err error, want []float32) {
			if err != nil {
				t.Fatalf("scratch decoder refused a frame the allocating one accepted: %v", err)
			}
			if !sameBits(got, want) {
				t.Fatalf("scratch decode %v, allocating decode %v", got, want)
			}
			if len(got) > 0 && len(got) <= cap(dirty) && &got[0] != &dirty[0] {
				t.Fatalf("decoded %d floats into fresh memory past a buffer of capacity %d", len(got), cap(dirty))
			}
		}
		if req, err := DecodeRequest(data); err == nil {
			re := EncodeRequest(req)
			if string(re) != string(data) {
				t.Fatalf("accepted request is not canonical:\n in  %x\n out %x", data, re)
			}
			if len(req.Input) > MaxVectorLen {
				t.Fatalf("accepted input of %d floats past MaxVectorLen", len(req.Input))
			}
			got, err := decodeRequestInto(data, dirty)
			check(got.Input, err, req.Input)
			if re := appendRequest(prefix, got); string(re) != string(prefix)+string(data) {
				t.Fatalf("appendRequest re-encoded %x as %x", data, re)
			}
		} else if _, err2 := decodeRequestInto(data, dirty); err2 == nil {
			t.Fatalf("scratch decoder accepted a request the allocating one refused: %v", err)
		}
		if rep, err := DecodeReply(data); err == nil {
			re := EncodeReply(rep)
			if string(re) != string(data) {
				t.Fatalf("accepted reply is not canonical:\n in  %x\n out %x", data, re)
			}
			if len(rep.Output) > MaxVectorLen {
				t.Fatalf("accepted output of %d floats past MaxVectorLen", len(rep.Output))
			}
			got, err := decodeReplyInto(data, dirty)
			check(got.Output, err, rep.Output)
			if re := appendReply(prefix, got); string(re) != string(prefix)+string(data) {
				t.Fatalf("appendReply re-encoded %x as %x", data, re)
			}
		} else if _, err2 := decodeReplyInto(data, dirty); err2 == nil {
			t.Fatalf("scratch decoder accepted a reply the allocating one refused: %v", err)
		}
	})
}
