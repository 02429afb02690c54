package lossnet

import "testing"

// drawSchedule records n fates from a model.
func drawSchedule(m Model, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = m.Lost(float64(i) * 0.001)
	}
	return out
}

// lossRate is the fraction of lost packets in a schedule.
func lossRate(s []bool) float64 {
	n := 0
	for _, l := range s {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

// meanBurstLen is the mean length of a maximal run of consecutive losses.
func meanBurstLen(s []bool) float64 {
	runs, total := 0, 0
	cur := 0
	for _, l := range s {
		if l {
			cur++
			continue
		}
		if cur > 0 {
			runs++
			total += cur
			cur = 0
		}
	}
	if cur > 0 {
		runs++
		total += cur
	}
	if runs == 0 {
		return 0
	}
	return float64(total) / float64(runs)
}

func TestBernoulliRateAndDeterminism(t *testing.T) {
	a := drawSchedule(NewBernoulli(0.05, 7), 200_000)
	b := drawSchedule(NewBernoulli(0.05, 7), 200_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if r := lossRate(a); r < 0.045 || r > 0.055 {
		t.Fatalf("bernoulli(0.05) realized rate %.4f", r)
	}
	c := drawSchedule(NewBernoulli(0.05, 8), 200_000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGilbertElliottCalibrationAndBurstiness(t *testing.T) {
	const rate, burst = 0.05, 8.0
	ge := drawSchedule(NewGilbertElliott(rate, burst, 3), 500_000)
	if r := lossRate(ge); r < 0.035 || r > 0.065 {
		t.Fatalf("GE(%.2f) realized rate %.4f", rate, r)
	}
	iid := drawSchedule(NewBernoulli(rate, 3), 500_000)
	geBurst, iidBurst := meanBurstLen(ge), meanBurstLen(iid)
	// The whole point of the two-state chain: losses cluster. At equal mean
	// rate the GE mean run length must clearly exceed the i.i.d. one (≈1.05).
	if geBurst < 2*iidBurst {
		t.Fatalf("GE mean burst %.2f not clearly burstier than iid %.2f", geBurst, iidBurst)
	}
	// Determinism.
	again := drawSchedule(NewGilbertElliott(rate, burst, 3), 1000)
	for i := range again {
		if again[i] != ge[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestGilbertElliottNeverFullyBlocks(t *testing.T) {
	// LossBad < 1 must hold: retransmission loops rely on packets escaping
	// even mid-burst.
	g := NewGilbertElliott(0.4, 64, 1)
	if g.LossBad >= 1 {
		t.Fatalf("LossBad = %g, retransmission could loop forever", g.LossBad)
	}
	delivered := false
	for i := 0; i < 10_000; i++ {
		if !g.Lost(0) {
			delivered = true
			break
		}
	}
	if !delivered {
		t.Fatal("no packet delivered in 10k draws at rate 0.4")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"", Spec{}, true},
		{"none", Spec{}, true},
		{"iid:0.05", Spec{Kind: "iid", Rate: 0.05}, true},
		{"ge:0.05", Spec{Kind: "ge", Rate: 0.05, Burst: DefaultBurst}, true},
		{"ge:0.05/16", Spec{Kind: "ge", Rate: 0.05, Burst: 16}, true},
		{"ge:1e-3/1", Spec{Kind: "ge", Rate: 1e-3, Burst: 1}, true},
		{"trace", Spec{}, false},   // loss comes from a model, not a trace
		{"ge:0.7", Spec{}, false},  // rate out of range
		{"ge:-0.1", Spec{}, false}, // negative rate
		{"iid:0.05/-2", Spec{}, false},
		{"bogus:0.1", Spec{}, false},
		{"ge", Spec{}, false}, // missing rate
		{"ge:abc", Spec{}, false},
		{":0.1", Spec{}, false},
		{"none:0.1", Spec{}, false},
		{"ge:0.05/0.5", Spec{}, false},  // a burst is at least one packet
		{"iid:0.05/16", Spec{}, false},  // i.i.d. loss has no bursts
		{"ge:NaN", Spec{}, false},       // would silently disable loss
		{"ge:0.05/+Inf", Spec{}, false}, // would pin the chain in the bad state
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSpec(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Round-trip through String.
	for _, in := range []string{"iid:0.05", "ge:0.05/16", "none"} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(s.String())
		if err != nil || back != s {
			t.Fatalf("round trip %q → %q → %+v (err %v)", in, s.String(), back, err)
		}
	}
}

func TestSpecModel(t *testing.T) {
	if m := (Spec{}).Model(1); m != nil {
		t.Fatalf("disabled spec: model %v", m)
	}
	if _, ok := (Spec{Kind: "iid", Rate: 0.05}).Model(1).(*Bernoulli); !ok {
		t.Fatal("iid spec did not build a Bernoulli model")
	}
	ge := Spec{Kind: "ge", Rate: 0.05}
	if err := ge.Validate(); err != nil {
		t.Fatal(err)
	}
	if g, ok := ge.Model(1).(*GilbertElliott); !ok || g.PBadGood != 1.0/DefaultBurst {
		t.Fatalf("ge spec without a burst: model %+v, want DefaultBurst", g)
	}
}

// FuzzParseSpec holds ParseSpec to its inverse: every spec it accepts
// renders through String to text that parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"ge:0.05/0.5", "iid:0.05/16", "ge:NaN", "ge:0.05/+Inf", "ge:0.05/16", "iid:0.05", "none", ":0.1", "none:0.1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil || back != s {
			t.Fatalf("%q parsed to %+v, renders %q, parses back to %+v (err %v)", in, s, s.String(), back, err)
		}
	})
}

func TestParseReliability(t *testing.T) {
	if r, err := ParseReliability("all"); err != nil || r != AllReliable {
		t.Fatalf("all → %v, %v", r, err)
	}
	if r, err := ParseReliability(""); err != nil || r != Selective {
		t.Fatalf("empty → %v, %v", r, err)
	}
	if _, err := ParseReliability("sometimes"); err == nil {
		t.Fatal("bogus reliability accepted")
	}
}
