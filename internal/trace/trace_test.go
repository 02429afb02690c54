package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAtWrapsAndIndexes(t *testing.T) {
	tr := &Trace{Dt: 0.1, Samples: []float64{10, 20, 30}}
	if tr.At(0) != 10 || tr.At(0.15) != 20 || tr.At(0.25) != 30 {
		t.Fatalf("indexing broken: %v %v %v", tr.At(0), tr.At(0.15), tr.At(0.25))
	}
	if tr.At(0.35) != 10 { // wraps
		t.Fatalf("wrap broken: %v", tr.At(0.35))
	}
	empty := &Trace{Dt: 0.1}
	if empty.At(1) != 0 {
		t.Fatal("empty trace should read 0")
	}
}

func TestNextBoundary(t *testing.T) {
	tr := &Trace{Dt: 0.1, Samples: make([]float64, 10)}
	if b := tr.NextBoundary(0.05); math.Abs(b-0.1) > 1e-12 {
		t.Fatalf("boundary=%v", b)
	}
	// Exactly on a boundary moves to the next one.
	if b := tr.NextBoundary(0.1); math.Abs(b-0.2) > 1e-12 {
		t.Fatalf("boundary at edge=%v", b)
	}
}

func TestMeanMinDuration(t *testing.T) {
	tr := &Trace{Dt: 0.5, Samples: []float64{10, 20, 30, 40}}
	if tr.Mean() != 25 || tr.Min() != 10 || tr.Duration() != 2 {
		t.Fatalf("stats: mean=%v min=%v dur=%v", tr.Mean(), tr.Min(), tr.Duration())
	}
}

func TestMeanFluctuationIntervalKnown(t *testing.T) {
	// Alternating 100/50: every step is a ≥40% change (100→50 is -50%,
	// 50→100 is +100%). 10 samples at 0.1s → 1s duration, 9 changes.
	s := make([]float64, 10)
	for i := range s {
		if i%2 == 0 {
			s[i] = 100
		} else {
			s[i] = 50
		}
	}
	tr := &Trace{Dt: 0.1, Samples: s}
	want := 1.0 / 9.0
	if got := tr.MeanFluctuationInterval(0.4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("interval=%v want %v", got, want)
	}
	flat := Constant(100, 1, 0.1)
	if !math.IsInf(flat.MeanFluctuationInterval(0.2), 1) {
		t.Fatal("flat trace should have infinite fluctuation interval")
	}
}

// TestPaperCalibration pins the generator to the paper's Fig. 3 statistics:
// a ≥20% fluctuation about every 0.4s and a ≥40% one about every 1.2s.
// Generous tolerances: the paper itself reports "typically".
func TestPaperCalibration(t *testing.T) {
	for _, env := range []Env{Indoor, Outdoor} {
		tr := GenerateEnv(env, 300, 42)
		i20 := tr.MeanFluctuationInterval(0.2)
		i40 := tr.MeanFluctuationInterval(0.4)
		if i20 < 0.2 || i20 > 0.8 {
			t.Errorf("%v: 20%% fluctuation interval %.2fs, want ≈0.4s", env, i20)
		}
		if i40 < 0.6 || i40 > 2.5 {
			t.Errorf("%v: 40%% fluctuation interval %.2fs, want ≈1.2s", env, i40)
		}
	}
}

func TestOutdoorMoreUnstableThanIndoor(t *testing.T) {
	in := GenerateEnv(Indoor, 300, 7)
	out := GenerateEnv(Outdoor, 300, 7)
	// Outdoors drops to near-zero far more often (paper Sec. II-B).
	if out.FractionBelow(5) <= in.FractionBelow(5) {
		t.Fatalf("outdoor below-5Mbps %.4f <= indoor %.4f",
			out.FractionBelow(5), in.FractionBelow(5))
	}
	if out.Mean() >= in.Mean() {
		t.Fatalf("outdoor mean %.1f >= indoor mean %.1f", out.Mean(), in.Mean())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateEnv(Outdoor, 10, 5)
	b := GenerateEnv(Outdoor, 10, 5)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := GenerateEnv(Outdoor, 10, 6)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateBounds(t *testing.T) {
	cfg := Outdoor.Config()
	tr := Generate(cfg, 120, 9)
	for i, v := range tr.Samples {
		if v < cfg.FloorMbps || v > cfg.CeilMbps || math.IsNaN(v) {
			t.Fatalf("sample %d = %v out of [%v,%v]", i, v, cfg.FloorMbps, cfg.CeilMbps)
		}
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(50, 2, 0.1)
	if len(tr.Samples) != 20 || tr.Mean() != 50 || tr.Min() != 50 {
		t.Fatalf("constant trace wrong: n=%d mean=%v", len(tr.Samples), tr.Mean())
	}
}

func TestSparkline(t *testing.T) {
	tr := &Trace{Dt: 0.1, Samples: []float64{0, 50, 100, 100, 0, 0, 50, 100}}
	line := tr.Sparkline(4)
	runes := []rune(line)
	if len(runes) != 4 {
		t.Fatalf("width %d: %q", len(runes), line)
	}
	// Bucket means are 25, 100, 0, 75: strictly ordered glyphs.
	if !(runes[2] < runes[0] && runes[0] < runes[3] && runes[3] <= runes[1]) {
		t.Fatalf("glyph ordering wrong: %q", line)
	}
	if (&Trace{}).Sparkline(10) != "" || tr.Sparkline(0) != "" {
		t.Fatal("degenerate sparklines should be empty")
	}
	flat := Constant(0, 1, 0.1)
	if len([]rune(flat.Sparkline(5))) != 5 {
		t.Fatal("all-zero trace should still render")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tr := GenerateEnv(Indoor, 5, 3)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Dt-tr.Dt) > 1e-9 || len(got.Samples) != len(tr.Samples) {
		t.Fatalf("shape changed: dt=%v n=%d", got.Dt, len(got.Samples))
	}
	for i := range tr.Samples {
		if math.Abs(got.Samples[i]-tr.Samples[i]) > 1e-3 {
			t.Fatalf("sample %d: %v vs %v", i, got.Samples[i], tr.Samples[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"badTime":    "x,1.0\n",
		"badValue":   "0.0,y\n",
		"decreasing": "1.0,5\n0.5,6\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A trace carries bandwidth only: a row of any other width, a third
	// (loss) column included, fails on its field count.
	for _, in := range []string{"0.0\n", "0.0,1.0,0.1\n", "0.0,1.0,z\n", "0.0,1.0\n0.1,2.0,0.1\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "want 2 fields") {
			t.Errorf("%q: err %v, want a field-count error", in, err)
		}
	}
	// Comments and blank lines are tolerated.
	tr, err := ReadCSV(strings.NewReader("# header\n\n0.0,5\n0.1,6\n"))
	if err != nil || len(tr.Samples) != 2 {
		t.Fatalf("comment handling: %v %v", tr, err)
	}
}
