package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"rog/internal/tensor"
)

// saveParamsReference is the streaming encoder AppendParams replaced: a
// bufio.Writer and one binary.Write per field and per weight. The codec
// must keep writing exactly its bytes.
func saveParamsReference(s *Sequential, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	params := s.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(checkpointVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Rows)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Cols)); err != nil {
			return err
		}
		for _, v := range p.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// loadParamsReference is the streaming decoder DecodeParams replaced: its
// error for every input is the text DecodeParams must keep.
func loadParamsReference(s *Sequential, r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a ROG model checkpoint")
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := s.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d matrices, model has %d", count, len(params))
	}
	for i, p := range params {
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.Rows || int(cols) != p.Cols {
			return fmt.Errorf("nn: matrix %d is %dx%d in checkpoint, %dx%d in model",
				i, rows, cols, p.Rows, p.Cols)
		}
		buf := make([]byte, 4*rows*cols)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("nn: matrix %d data: %w", i, err)
		}
		for j := range p.Data {
			p.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
	}
	return nil
}

// specialWeights are the float32 values a byte codec most easily mangles:
// signed zero, both infinities, and NaNs of either sign with payloads.
var specialWeights = []float32{
	float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00002), // quiet, signalling
	math.SmallestNonzeroFloat32, -math.MaxFloat32,
}

// withSpecialWeights seeds the head of every parameter matrix of m with
// specialWeights.
func withSpecialWeights(m *Sequential) *Sequential {
	for _, p := range m.Params() {
		copy(p.Data, specialWeights)
	}
	return m
}

// sameWeightBits reports whether two same-architecture models hold
// bit-identical weights, NaN payloads included.
func sameWeightBits(a, b *Sequential) bool {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j, v := range pa[i].Data {
			if math.Float32bits(v) != math.Float32bits(pb[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

// TestParamsCodecMatchesReference holds AppendParams to the binary.Write
// encoder byte for byte, and DecodeParams to the streaming decoder's
// bit-exact round trip, on models whose weights include −0, ±Inf and NaNs.
func TestParamsCodecMatchesReference(t *testing.T) {
	models := map[string]func(*tensor.RNG) *Sequential{
		"mlp": func(r *tensor.RNG) *Sequential { return NewClassifierMLP(4, []int{8}, 3, r) },
		"conv": func(r *tensor.RNG) *Sequential {
			return NewConvMLP(1, 6, 6, []int{4}, []int{12}, 3, r)
		},
		"params-free": func(*tensor.RNG) *Sequential { return NewSequential(&ReLU{}) },
	}
	for name, build := range models {
		m := withSpecialWeights(build(tensor.NewRNG(7)))
		var ref bytes.Buffer
		if err := saveParamsReference(m, &ref); err != nil {
			t.Fatal(err)
		}
		if got := m.AppendParams(nil); !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%s: AppendParams differs from the binary.Write encoder", name)
		}
		if got := m.AppendParams([]byte("head")); !bytes.Equal(got, append([]byte("head"), ref.Bytes()...)) {
			t.Fatalf("%s: AppendParams onto a non-empty dst differs", name)
		}

		loaded := build(tensor.NewRNG(99))
		if err := loadParamsReference(loaded, bytes.NewReader(ref.Bytes())); err != nil {
			t.Fatalf("%s: streaming decoder: %v", name, err)
		}
		decoded := build(tensor.NewRNG(98))
		if err := decoded.DecodeParams(ref.Bytes()); err != nil {
			t.Fatalf("%s: DecodeParams: %v", name, err)
		}
		if !sameWeightBits(m, loaded) || !sameWeightBits(m, decoded) {
			t.Fatalf("%s: weights changed bits across the round trip", name)
		}
	}
}

// TestAppendParamsGrowsOnce: encoding into nil allocates the checkpoint
// once; into a buffer with room, not at all.
func TestAppendParamsGrowsOnce(t *testing.T) {
	m := NewConvMLP(1, 6, 6, []int{4}, []int{12}, 3, tensor.NewRNG(1))
	if n := testing.AllocsPerRun(20, func() { m.AppendParams(nil) }); n != 1 {
		t.Fatalf("AppendParams(nil) allocates %v times, want 1", n)
	}
	buf := make([]byte, 0, len(m.AppendParams(nil)))
	if n := testing.AllocsPerRun(20, func() { m.AppendParams(buf) }); n != 0 {
		t.Fatalf("AppendParams into a large enough buffer allocates %v times, want 0", n)
	}
}

// TestDecodeParamsErrors pins the decoder's error texts — the ones the
// streaming decoder gave — for every way a checkpoint can be wrong, and
// holds DecodeParams to the streaming reference at every truncation length.
func TestDecodeParamsErrors(t *testing.T) {
	m := NewClassifierMLP(4, []int{8}, 3, tensor.NewRNG(6))
	ckpt := m.AppendParams(nil)
	p0, last := m.Params()[0], len(m.Params())-1
	with := func(off int, v byte) []byte {
		b := slices.Clone(ckpt)
		b[off] = v
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "nn: reading checkpoint magic: EOF"},
		{"torn magic", ckpt[:2], "nn: reading checkpoint magic: unexpected EOF"},
		{"bad magic", []byte("NOPE....extra"), "nn: not a ROG model checkpoint"},
		{"no version", ckpt[:4], "EOF"},
		{"torn version", ckpt[:6], "unexpected EOF"},
		{"bad version", with(4, 99), "nn: unsupported checkpoint version 99"},
		{"no count", ckpt[:8], "EOF"},
		{"bad count", with(8, 7), fmt.Sprintf("nn: checkpoint has 7 matrices, model has %d", last+1)},
		{"torn shape", ckpt[:14], "unexpected EOF"},
		{"bad shape", with(12, 5), fmt.Sprintf("nn: matrix 0 is 5x%d in checkpoint, %dx%d in model", p0.Cols, p0.Rows, p0.Cols)},
		{"no data", ckpt[:20], "nn: matrix 0 data: EOF"},
		{"torn data", ckpt[:len(ckpt)-1], fmt.Sprintf("nn: matrix %d data: unexpected EOF", last)},
	}
	for _, tc := range cases {
		for how, err := range map[string]error{
			"DecodeParams": m.DecodeParams(tc.data),
			"reference":    loadParamsReference(m, bytes.NewReader(tc.data)),
		} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %s error %v, want %q", tc.name, how, err, tc.want)
			}
		}
	}
	for cut := 0; cut <= len(ckpt); cut++ {
		want := fmt.Sprint(loadParamsReference(m, bytes.NewReader(ckpt[:cut])))
		if got := fmt.Sprint(m.DecodeParams(ckpt[:cut])); got != want {
			t.Fatalf("cut %d: DecodeParams error %q, reference %q", cut, got, want)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewConvMLP(1, 6, 6, []int{4}, []int{12}, 3, r)
	m2 := NewConvMLP(1, 6, 6, []int{4}, []int{12}, 3, tensor.NewRNG(99))
	if err := m2.DecodeParams(m.AppendParams(nil)); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i]) {
			t.Fatalf("param %d differs after roundtrip", i)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewClassifierMLP(4, []int{8}, 3, r)
	ckpt := m.AppendParams(nil)
	other := NewClassifierMLP(4, []int{9}, 3, r)
	if err := other.DecodeParams(ckpt); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
	fewer := NewClassifierMLP(4, nil, 3, r)
	if err := fewer.DecodeParams(ckpt); err == nil {
		t.Fatal("wrong matrix count accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewClassifierMLP(4, []int{8}, 3, r)
	cases := map[string][]byte{
		"empty":    {},
		"badMagic": []byte("NOPE....extra"),
		"truncated": func() []byte {
			ckpt := m.AppendParams(nil)
			return ckpt[:len(ckpt)/2]
		}(),
	}
	for name, data := range cases {
		if err := m.DecodeParams(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	r := tensor.NewRNG(4)
	m := NewClassifierMLP(3, nil, 2, r)
	data := m.AppendParams(nil)
	data[4] = 99 // version byte
	if err := m.DecodeParams(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted: %v", err)
	}
}
