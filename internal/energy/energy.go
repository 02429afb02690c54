// Package energy models per-device power consumption during distributed
// training. The paper (Table III, measured with jtop on Jetson Xavier NX
// boards) identifies three states with near-constant power: computation
// 13.35 W, communication 4.25 W and stall 4.04 W — the stall state still
// burns ≈30 % of compute power because leakage current keeps CPU/GPU/memory
// warm while the device waits for the parameter server.
//
// In the virtual-time experiments, state residency is known exactly, so
// energy is the exact integral power·time instead of the paper's 10 Hz
// numerical integration.
package energy

import "fmt"

// State is a device's activity at an instant.
type State int

const (
	// Compute covers forward/backward passes and gradient (de)compression,
	// which the paper folds into computation time.
	Compute State = iota
	// Communicate covers active radio transmission/reception.
	Communicate
	// Stall covers waiting at a synchronization barrier.
	Stall
	numStates
)

// String names the state.
func (s State) String() string {
	switch s {
	case Compute:
		return "computation"
	case Communicate:
		return "communication"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Model holds per-state power in watts.
type Model struct {
	Watts [numStates]float64
}

// PaperModel returns Table III's measured powers.
func PaperModel() Model {
	return Model{Watts: [numStates]float64{
		Compute:     13.35,
		Communicate: 4.25,
		Stall:       4.04,
	}}
}

// Meter integrates one device's energy across state residencies.
type Meter struct {
	model   Model
	seconds [numStates]float64
}

// NewMeter returns a meter over the given power model.
func NewMeter(m Model) *Meter { return &Meter{model: m} }

// Add records dt seconds spent in state s.
func (m *Meter) Add(s State, dt float64) {
	if dt < 0 {
		panic("energy: negative duration")
	}
	m.seconds[s] += dt
}

// Seconds returns the accumulated residency of state s.
func (m *Meter) Seconds(s State) float64 { return m.seconds[s] }

// TotalSeconds returns total metered time.
func (m *Meter) TotalSeconds() float64 {
	var t float64
	for _, s := range m.seconds {
		t += s
	}
	return t
}

// Joules returns the integrated energy in joules.
func (m *Meter) Joules() float64 {
	var j float64
	for s, sec := range m.seconds {
		j += m.model.Watts[s] * sec
	}
	return j
}
