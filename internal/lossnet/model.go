// Package lossnet is the loss-tolerant row-transport subsystem. The
// bandwidth model in internal/trace reproduces how fast a robotic IoT link
// moves bytes; this package reproduces the fact that 802.11ac between
// moving robots also *drops* packets, in bursts, and provides the machinery
// to train through it:
//
//   - Deterministic, seedable packet-loss channel models: i.i.d. Bernoulli
//     and a Gilbert–Elliott bursty two-state chain calibrated by target loss
//     rate and mean burst length.
//   - A frame-dropping net.Conn wrapper (conn.go) that injects loss under
//     the existing TCP-style stream framing of internal/transport.
//   - A datagram transport (dgram.go) with sequence numbers, cumulative
//     acks and NACK-driven selective retransmission: reliable-class
//     payloads retransmit until acked, best-effort losses are detected via
//     sequence gaps and reported to the sender so their gradients can be
//     folded back into the local accumulator.
//
// The selective-reliability split itself is policy: the reliable class of a
// push plan is its Must prefix (the MTA floor plus the rows RSP forces), so
// ATP's importance ranking decides what retransmits and what may be lost.
package lossnet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rog/internal/tensor"
)

// Model decides the fate of successive packets on one link. Each Lost call
// consumes draws from a seeded generator, so a fixed seed replays the loss
// schedule bit-identically; t is the send time in seconds (no model in this
// package reads it).
type Model interface {
	Lost(t float64) bool
}

// Bernoulli is i.i.d. loss: every packet is dropped independently with the
// same probability.
type Bernoulli struct {
	rate float64
	rng  *tensor.RNG
}

// NewBernoulli returns an i.i.d. model with the given drop rate.
func NewBernoulli(rate float64, seed uint64) *Bernoulli {
	return &Bernoulli{rate: rate, rng: tensor.NewRNG(seed)}
}

// Lost implements Model.
func (b *Bernoulli) Lost(float64) bool { return b.rng.Float64() < b.rate }

// GilbertElliott is the classic bursty two-state channel: a good state with
// a small residual loss probability and a bad state (deep fade, collision
// burst) where most packets die. State transitions happen per packet, so
// losses cluster into runs whose mean length is the calibrated burst size.
type GilbertElliott struct {
	PGoodBad float64 // per-packet good→bad transition probability
	PBadGood float64 // per-packet bad→good transition probability
	LossGood float64 // loss probability in the good state
	LossBad  float64 // loss probability in the bad state

	bad bool
	rng *tensor.RNG
}

// geLossBad is the in-burst loss probability the calibration assumes: deep
// fades kill most, not all, packets (keeping it below 1 also guarantees
// retransmission loops drain even while a burst persists).
const geLossBad = 0.9

// NewGilbertElliott calibrates a bursty model to a target mean loss rate
// and mean burst length (packets spent in the bad state per visit).
func NewGilbertElliott(rate, burst float64, seed uint64) *GilbertElliott {
	if burst < 1 {
		burst = 1
	}
	lossGood := rate / 8 // small residual loss outside bursts
	// Stationary bad-state occupancy that hits the target mean rate, then
	// the transition pair whose sojourn times realize it: mean bad sojourn
	// is burst packets (PBadGood = 1/burst) and PGoodBad follows from the
	// occupancy balance πB/πG = PGoodBad/PBadGood.
	piBad := (rate - lossGood) / (geLossBad - lossGood)
	if piBad < 0 {
		piBad = 0
	}
	if piBad > 0.5 {
		piBad = 0.5
	}
	pBG := 1 / burst
	pGB := pBG * piBad / (1 - piBad)
	return &GilbertElliott{
		PGoodBad: pGB,
		PBadGood: pBG,
		LossGood: lossGood,
		LossBad:  geLossBad,
		rng:      tensor.NewRNG(seed),
	}
}

// Lost implements Model: draw the packet's fate in the current state, then
// advance the chain one step.
func (g *GilbertElliott) Lost(float64) bool {
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	lost := g.rng.Float64() < p
	if g.bad {
		if g.rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.PGoodBad {
		g.bad = true
	}
	return lost
}

// Reliability selects which transmitted rows retransmit on loss.
type Reliability int

const (
	// Selective retransmits only the reliable class — a speculative plan's
	// Must prefix (MTA floor + RSP-forced rows); lost best-effort rows fold
	// their gradients back into the local accumulator. Whole-model plans
	// (BSP/SSP) have no best-effort class and always fully retransmit.
	Selective Reliability = iota
	// AllReliable retransmits every transmitted row until delivered — the
	// full-reliability baseline the selective protocol is measured against.
	AllReliable
)

// String names the reliability mode.
func (r Reliability) String() string {
	if r == AllReliable {
		return "all"
	}
	return "selective"
}

// ParseReliability is the inverse of Reliability.String.
func ParseReliability(s string) (Reliability, error) {
	switch strings.ToLower(s) {
	case "", "selective":
		return Selective, nil
	case "all", "all-reliable", "reliable":
		return AllReliable, nil
	default:
		return Selective, fmt.Errorf("lossnet: unknown reliability %q (want selective or all)", s)
	}
}

// DefaultBurst is the calibrated mean burst length (packets) when a spec
// does not name one — roughly one 802.11 retry window of a deep fade.
const DefaultBurst = 8

// Spec names a loss model in the config/CLI grammar:
//
//	""            no loss (the default)
//	"iid:0.05"    i.i.d. Bernoulli at 5 %
//	"ge:0.05"     Gilbert–Elliott at 5 % mean, default burst length
//	"ge:0.05/16"  Gilbert–Elliott at 5 % mean, 16-packet mean bursts
type Spec struct {
	Kind  string  // "", "none", "iid" or "ge"
	Rate  float64 // target mean loss rate
	Burst float64 // mean burst length in packets (ge only; 0 = DefaultBurst)
}

// Enabled reports whether the spec names any loss at all.
func (s Spec) Enabled() bool { return s.Kind != "" && s.Kind != "none" && s.Rate > 0 }

// Validate rejects what no model can run and fills defaults.
func (s *Spec) Validate() error {
	switch s.Kind {
	case "", "none":
	case "iid", "ge":
		if !(s.Rate >= 0 && s.Rate < 0.5) {
			return fmt.Errorf("lossnet: loss rate must be in [0, 0.5), got %g", s.Rate)
		}
	default:
		return fmt.Errorf("lossnet: unknown loss model %q (want iid or ge)", s.Kind)
	}
	if s.Burst != 0 && s.Kind != "ge" {
		return fmt.Errorf("lossnet: only ge takes a burst length, got %g on %q", s.Burst, s.Kind)
	}
	if s.Burst != 0 && !(s.Burst >= 1 && s.Burst <= math.MaxFloat64) {
		return fmt.Errorf("lossnet: burst length must be finite and ≥ 1, got %g", s.Burst)
	}
	if s.Kind == "ge" && s.Burst == 0 {
		s.Burst = DefaultBurst
	}
	return nil
}

// String renders the spec in ParseSpec's grammar.
func (s Spec) String() string {
	if s.Kind == "" || s.Kind == "none" {
		return "none"
	}
	out := fmt.Sprintf("%s:%g", s.Kind, s.Rate)
	if s.Burst != 0 && s.Burst != DefaultBurst {
		out += fmt.Sprintf("/%g", s.Burst)
	}
	return out
}

// ParseSpec parses the loss-model grammar (see Spec).
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return Spec{}, nil
	}
	kind, rest, ok := strings.Cut(text, ":")
	if !ok || kind == "" || kind == "none" {
		return Spec{}, fmt.Errorf("lossnet: bad loss spec %q (want kind:rate[/burst])", text)
	}
	s := Spec{Kind: kind}
	rateStr, burstStr, hasBurst := strings.Cut(rest, "/")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return Spec{}, fmt.Errorf("lossnet: bad loss rate in %q: %w", text, err)
	}
	s.Rate = rate
	if hasBurst {
		b, err := strconv.ParseFloat(burstStr, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("lossnet: bad burst length in %q: %w", text, err)
		}
		s.Burst = b
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Model builds the loss process of a spec that passed Validate for one
// link; a disabled spec returns nil.
func (s Spec) Model(seed uint64) Model {
	switch {
	case !s.Enabled():
		return nil
	case s.Kind == "iid":
		return NewBernoulli(s.Rate, seed)
	}
	return NewGilbertElliott(s.Rate, s.Burst, seed)
}
