package atp

import (
	"math"
	"testing"
)

func sizes(s ...float64) func(u int) float64 {
	return func(u int) float64 { return s[u] }
}

func TestPlanPrefixSums(t *testing.T) {
	p := NewPlan([]int{2, 0, 1}, sizes(10, 20, 30))
	want := []float64{0, 30, 40, 60}
	if len(p.Prefix) != len(want) {
		t.Fatalf("prefix len = %d, want %d", len(p.Prefix), len(want))
	}
	for i, v := range want {
		if p.Prefix[i] != v {
			t.Fatalf("prefix[%d] = %v, want %v", i, p.Prefix[i], v)
		}
	}
	if p.TotalBytes() != 60 {
		t.Fatalf("total = %v, want 60", p.TotalBytes())
	}
}

// TestDeliveredCountBoundary pins the timeout-discard rule: a unit counts
// only when its last byte fit inside the budget, with a 1e-9 epsilon so an
// exact boundary (modulo float drift) is not discarded.
func TestDeliveredCountBoundary(t *testing.T) {
	p := NewPlan([]int{0, 1, 2}, sizes(100, 50, 25))
	cases := []struct {
		bytes float64
		want  int
	}{
		{0, 0},
		{99.999, 0},
		{100, 1},         // exact boundary: the unit completed
		{100 - 1e-12, 1}, // within epsilon of the boundary
		{100 + 1e-6, 1},  // partway into the next unit: discard it
		{149.999999, 1},
		{150, 2},
		{174.9, 2},
		{175, 3},
		{1e9, 3}, // beyond the plan: clamp to all units
	}
	for _, c := range cases {
		if got := p.DeliveredCount(c.bytes); got != c.want {
			t.Errorf("DeliveredCount(%v) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestDeliveredCountEmptyPlan(t *testing.T) {
	p := NewPlan(nil, nil)
	if got := p.DeliveredCount(1e9); got != 0 {
		t.Fatalf("empty plan delivered %d units", got)
	}
	if p.TotalBytes() != 0 {
		t.Fatalf("empty plan total = %v", p.TotalBytes())
	}
}

// TestMTATimeMatchesBothRuntimes holds the one apportioning expression to
// the three each runtime spelled out before it moved here, bit for bit:
// simnet's whole flow (elapsed × floor ÷ total, when total > 0), simnet's
// budget timer (budget × floor ÷ bytes sent, when any were) and the socket
// worker's push (elapsed × floor ÷ bytes of the rows sent whole, when more
// than the floor went out).
func TestMTATimeMatchesBothRuntimes(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float64 { // xorshift, uniform in [0, 1)
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / (1 << 53)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 2000; trial++ {
		n := 1 + trial%9
		s := make([]float64, n)
		for i := range s {
			s[i] = math.Floor(1 + 4000*next())
		}
		units := make([]int, n)
		for i := range units {
			units[i] = i
		}
		p := NewPlan(units, sizes(s...))
		must := trial % (n + 1)
		elapsed := 1e-3 + 3*next()

		total := p.TotalBytes()
		want := elapsed
		if total > 0 {
			want = elapsed * p.Prefix[must] / total
		}
		if got := p.MTATime(elapsed, must, total); !same(got, want) {
			t.Fatalf("whole flow: MTATime = %v, want %v", got, want)
		}

		sent := total * next()
		want = elapsed
		if sent > 0 {
			want = elapsed * p.Prefix[must] / sent
		}
		if got := p.MTATime(elapsed, must, sent); !same(got, want) {
			t.Fatalf("budget cut: MTATime = %v, want %v", got, want)
		}

		whole := p.DeliveredCount(sent)
		if whole > must && p.Prefix[whole] > 0 {
			want = elapsed * p.Prefix[must] / p.Prefix[whole]
			if got := p.MTATime(elapsed, must, p.Prefix[whole]); !same(got, want) {
				t.Fatalf("socket push: MTATime = %v, want %v", got, want)
			}
		}
	}
	if got := NewPlan(nil, sizes()).MTATime(0.25, 0, 0); got != 0.25 {
		t.Fatalf("nothing sent: MTATime = %v, want the elapsed 0.25", got)
	}
}
