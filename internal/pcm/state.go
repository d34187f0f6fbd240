package pcm

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// State is the runtime thermal state of an enclosure: a lumped enthalpy
// formulation. Temperature and liquid fraction are derived from the stored
// enthalpy through the material's h(T) curve, which makes absorb/release
// unconditionally energy-conserving and hysteresis-free (commercial
// paraffin supercooling is negligible at multi-hour timescales).
type State struct {
	enc *Enclosure

	// refC is the enthalpy reference temperature (solid phase).
	refC float64
	// enthalpyJ is total stored heat relative to the reference, J.
	enthalpyJ float64
	// shellCapacity is the non-PCM (aluminum) sensible capacity, J/K.
	shellCapacity float64
	// waxMass is cached, kg.
	waxMass float64

	// Telemetry (see Instrument); nil and skipped entirely until a
	// registry is attached, so the uninstrumented hot path only pays one
	// branch.
	tel        *PhaseTelemetry
	label      string
	phase      WaxPhase
	hSol, hLiq float64
	simTimeS   float64
}

// Instrument attaches a telemetry registry: melt/freeze transition
// counters, exchange sub-step counts, and phase-transition events tagged
// with label. A nil registry is a no-op. Event timestamps use the sim
// clock advanced by ExchangeWithAir or supplied via SetSimTime.
func (s *State) Instrument(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	s.tel = NewPhaseTelemetry(reg)
	s.label = label
	s.hSol, s.hLiq = FlatPhaseThresholds(s.enc, s.refC, s.waxMass, s.shellCapacity)
	s.phase = FlatPhase(s.hSol, s.hLiq, s.enthalpyJ)
}

// SetSimTime pins the simulation clock used to stamp telemetry events;
// drivers that advance the state via AddHeat (the thermal network) call it
// each step.
func (s *State) SetSimTime(t float64) { s.simTimeS = t }

// notePhase detects melt/freeze transitions after an enthalpy change.
func (s *State) notePhase() {
	p := FlatPhase(s.hSol, s.hLiq, s.enthalpyJ)
	s.tel.Transition(s.phase, p, s.simTimeS, s.label, s.enthalpyJ)
	s.phase = p
}

// NewState initializes the enclosure state in thermal equilibrium at
// startC (which may be above the melt point: the state is then liquid).
func NewState(enc *Enclosure, startC float64) (*State, error) {
	if enc == nil {
		return nil, fmt.Errorf("pcm: nil enclosure")
	}
	s := &State{
		enc:           enc,
		refC:          math.Min(startC, enc.Material.SolidusC()) - 20,
		shellCapacity: enc.HeatCapacitySolid() - enc.WaxMass()*enc.Material.SpecificHeatSolid,
		waxMass:       enc.WaxMass(),
	}
	s.enthalpyJ = s.enthalpyAt(startC)
	return s, nil
}

// enthalpyAt returns the total enclosure enthalpy (J) when in equilibrium
// at tempC.
func (s *State) enthalpyAt(tempC float64) float64 {
	return flatEnthalpyAt(s.enc, s.refC, s.waxMass, s.shellCapacity, tempC)
}

// Temperature returns the current lumped temperature in degC.
func (s *State) Temperature() float64 {
	t, _ := s.solve()
	return t
}

// LiquidFraction returns the melted fraction in [0, 1].
func (s *State) LiquidFraction() float64 {
	_, f := s.solve()
	return f
}

// solve inverts total enthalpy to (temperature, liquid fraction) with the
// closed-form flatSolve (flat.go), the same arithmetic struct-of-arrays
// drivers run through FlatSolve.
func (s *State) solve() (tempC, liquidFrac float64) {
	return flatSolve(&s.enc.Material, s.refC, s.waxMass, s.shellCapacity, s.enthalpyJ)
}

// apparentHeat returns dh/dT (J/(kg*K)) of the material at tempC: the
// sensible specific heat outside the melt range, plus the latent ramp
// inside it.
func apparentHeat(m *Material, tempC float64) float64 {
	sol, liq := m.SolidusC(), m.LiquidusC()
	switch {
	case tempC < sol:
		return m.SpecificHeatSolid
	case tempC > liq:
		return m.SpecificHeatLiquid
	default:
		width := liq - sol
		if width <= 0 {
			// Sharp transition: effectively infinite; return a very large
			// finite capacity so Newton steps stay finite.
			return m.HeatOfFusion * 1e3
		}
		frac := (tempC - sol) / width
		sensible := m.SpecificHeatSolid + frac*(m.SpecificHeatLiquid-m.SpecificHeatSolid)
		return m.HeatOfFusion/width + sensible
	}
}

// AddHeat deposits (or withdraws, if negative) heat directly, J.
func (s *State) AddHeat(j float64) {
	s.enthalpyJ += j
	// Clamp: the enclosure cannot be withdrawn below the reference state.
	if s.enthalpyJ < 0 {
		s.enthalpyJ = 0
	}
	if s.tel != nil {
		s.notePhase()
	}
}

// StoredLatent returns the currently stored latent heat, J.
func (s *State) StoredLatent() float64 {
	return s.LiquidFraction() * s.enc.LatentCapacity()
}

// RemainingLatent returns the latent capacity still available, J.
func (s *State) RemainingLatent() float64 {
	return (1 - s.LiquidFraction()) * s.enc.LatentCapacity()
}

// ExchangeWithAir advances the enclosure by dt seconds exposed to air at
// airC with convective conductance hA (W/K). It returns the heat absorbed
// from the air in joules (negative when the wax is releasing heat into the
// air). The step is sub-divided so the exponential approach to air
// temperature is integrated stably even for large dt.
func (s *State) ExchangeWithAir(airC, hA, dt float64) float64 {
	total, steps := FlatExchangeWithAir(s.enc, s.refC, s.waxMass, s.shellCapacity, &s.enthalpyJ, airC, hA, dt)
	if s.tel != nil {
		if hA > 0 && dt > 0 {
			s.simTimeS += dt
		}
		if steps > 0 {
			s.tel.AddSubsteps(steps)
			s.notePhase()
		}
	}
	return total
}

// Enclosure returns the static enclosure description.
func (s *State) Enclosure() *Enclosure { return s.enc }

// Reset returns the state to equilibrium at tempC. A reset re-synchronizes
// the telemetry phase tracker without counting a transition.
func (s *State) Reset(tempC float64) {
	s.enthalpyJ = s.enthalpyAt(tempC)
	if s.tel != nil {
		s.phase = FlatPhase(s.hSol, s.hLiq, s.enthalpyJ)
	}
}
