package pcm

import (
	"math"

	"repro/internal/obs"
)

// This file is the flat-state form of the enclosure state machine: the
// same enthalpy physics as State, expressed as free functions over four
// scalars (enthalpy, reference temperature, wax mass, shell capacity) plus
// the shared *Enclosure. Struct-of-arrays drivers — the fleet simulator's
// compiled epoch kernel — keep those scalars in contiguous per-rack
// slices, share one Enclosure per server class, and call these primitives
// directly, so a million wax states cost four float64 slices instead of a
// million heap objects. Phase tracking works the same way: a driver keeps
// each state's solidus/liquidus enthalpy thresholds and last WaxPhase beside
// the four scalars, and reports transitions through a PhaseTelemetry.
//
// State's own methods delegate to these functions, so the flat path and
// the pointer path are bit-identical by construction: there is exactly one
// implementation of the arithmetic, and the equivalence tests in
// flat_test.go pin the delegation. Turning enthalpy back into temperature
// and liquid fraction, which every exchange sub-step does, is closed form
// (flatSolve); flat_test.go bounds it against a bisection oracle over the
// forward curve.

// flatEnthalpyAt returns the total enclosure enthalpy (J) in equilibrium
// at tempC for the given flat state.
func flatEnthalpyAt(enc *Enclosure, refC, waxMass, shellCap, tempC float64) float64 {
	m := &enc.Material
	return waxMass*m.Enthalpy(tempC, refC) + shellCap*(tempC-refC)
}

// flatSolve inverts total enthalpy to (temperature, liquid fraction): it
// solves waxMass*h(T) + shellCap*(T-ref) = H in closed form. With w the
// melt range, the left side is linear in T below the solidus, linear
// above the liquidus, and across the melt range (T = solidus + f*w) a
// quadratic in the liquid fraction f: the latent ramp plus the sensible
// heat of a mushy zone whose specific heat moves linearly from cs to cl.
// Two threshold compares pick the piece and each piece inverts exactly,
// so the answer carries only rounding error. As in Material.Enthalpy,
// the wax term's reference is clamped to the solidus while the shell
// term uses the unclamped reference; the thresholds (flatThresholds)
// bake both in. Material.TemperatureFromEnthalpy is the waxMass = 1,
// shellCap = 0 case.
func flatSolve(m *Material, refC, waxMass, shellCap, enthalpyJ float64) (tempC, liquidFrac float64) {
	sol, liq := m.SolidusC(), m.LiquidusC()
	hSol, hLiq := flatThresholds(m, refC, waxMass, shellCap)
	switch {
	case enthalpyJ <= hSol:
		// Measured from the wax reference, where the wax term is zero, so
		// H = 0 maps back to the reference exactly.
		refW := min(refC, sol)
		return refW + (enthalpyJ-shellCap*(refW-refC))/(waxMass*m.SpecificHeatSolid+shellCap), 0
	case enthalpyJ >= hLiq:
		return liq + (enthalpyJ-hLiq)/(waxMass*m.SpecificHeatLiquid+shellCap), 1
	}
	// H - hSol = a*f^2 + b*f. This root form cannot cancel and stays
	// finite when a = 0 (cl = cs) or w = 0 (then f is linear in H).
	w := liq - sol
	a := waxMass * w * (m.SpecificHeatLiquid - m.SpecificHeatSolid) / 2
	b := waxMass*(m.HeatOfFusion+w*m.SpecificHeatSolid/2) + shellCap*w
	d := enthalpyJ - hSol
	f := min(max(2*d/(b+math.Sqrt(b*b+4*a*d)), 0), 1)
	return sol + f*w, f
}

// flatThresholds returns the total enthalpy (J) of a flat state at the
// solidus and at the liquidus, on the solid and liquid branches of the
// curve respectively. Away from a sharp melt (MeltRangeK = 0) these are
// bit-identical to flatEnthalpyAt at the two temperatures; for a sharp
// melt they are the two ends of the latent step, which the forward
// curve, a step there, cannot return.
func flatThresholds(m *Material, refC, waxMass, shellCap float64) (hSolJ, hLiqJ float64) {
	sol, liq := m.SolidusC(), m.LiquidusC()
	hSolWax := m.SpecificHeatSolid * (sol - min(refC, sol))
	return waxMass*hSolWax + shellCap*(sol-refC),
		waxMass*(hSolWax+m.HeatOfFusion+mushySensible(m, 1)) + shellCap*(liq-refC)
}

// FlatExchangeWithAir is ExchangeWithAir over a flat wax state: it
// advances *enthalpyJ by dt seconds of convective exchange with air at
// airC (conductance hA, W/K) and returns the heat absorbed from the air in
// joules (negative on release) and the number of integration sub-steps
// taken (0 when the exchange was skipped: a non-positive hA or dt, or the
// supercooling guard). State.ExchangeWithAir runs this same function, so a
// flat driver and a State driver fed identical inputs produce bit-
// identical trajectories. The enclosure carries only fill-independent
// geometry and material constants, so racks degraded to a smaller fill
// may keep sharing their class's enclosure as long as waxMass, shellCap
// and the latent capacity are tracked per rack.
func FlatExchangeWithAir(enc *Enclosure, refC, waxMass, shellCap float64, enthalpyJ *float64, airC, hA, dt float64) (absorbedJ float64, steps int) {
	if hA <= 0 || dt <= 0 {
		return 0, 0
	}
	// Equilibrium enthalpy at the air temperature: relaxation can approach
	// but never cross it within a step, even when the apparent capacity
	// drops sharply at the liquidus.
	eq := flatEnthalpyAt(enc, refC, waxMass, shellCap, airC)
	// Supercooling: solidification cannot begin until the air falls below
	// the freeze onset, so above it stored latent heat stays in (the small
	// sensible cooling of the supercooled liquid is neglected).
	if airC > enc.Material.FreezeOnsetC() && eq < *enthalpyJ {
		return 0, 0
	}
	total := 0.0
	remaining := dt
	for remaining > 0 {
		steps++
		t, f := flatSolve(&enc.Material, refC, waxMass, shellCap, *enthalpyJ)
		g := hA
		if airC < t {
			// Discharge is conduction-limited: solidification grows a
			// crust of low-conductivity solid wax on the container walls,
			// in series with the convective film. (Melting has no such
			// penalty: convection in the melt and jet impingement keep the
			// charge side fast, which is why the paper gets away without
			// the metal mesh of the sprinting work.)
			g = hA / (1 + hA*enc.crustResistance(f))
		}
		cap := shellCap + waxMass*apparentHeat(&enc.Material, t)
		// Sub-step at a quarter of the local time constant, capped.
		tau := cap / g
		h := min(remaining, max(tau/4, 1e-3))
		// Exact relaxation over h for constant capacity:
		// q = cap * (airC - t) * (1 - exp(-g*h/cap)).
		q := cap * (airC - t) * (1 - math.Exp(-g*h/cap))
		next := *enthalpyJ + q
		if (q > 0 && next > eq) || (q < 0 && next < eq) {
			next = eq
			q = next - *enthalpyJ
		}
		if next < 0 {
			next = 0
			q = -*enthalpyJ
		}
		*enthalpyJ = next
		total += q
		remaining -= h
	}
	return total, steps
}

// FlatSolve returns the lumped temperature (degC) and liquid fraction of
// a flat wax state: the scalars a State carries, as returned by
// State.Flat or recorded by a struct-of-arrays driver.
func FlatSolve(enc *Enclosure, refC, waxMass, shellCap, enthalpyJ float64) (tempC, liquidFrac float64) {
	return flatSolve(&enc.Material, refC, waxMass, shellCap, enthalpyJ)
}

// WaxPhase is the lumped enclosure's melt state as the transition tracker
// sees it: solid up to the solidus enthalpy, liquid from the liquidus
// enthalpy on, mixed between.
type WaxPhase int8

// Wax phases in melting order.
const (
	WaxSolid WaxPhase = iota
	WaxMixed
	WaxLiquid
)

// FlatPhaseThresholds returns the enthalpies (J) of a flat wax state in
// equilibrium at the solidus and at the liquidus: where melting starts and
// where it completes, the same thresholds FlatSolve switches on. They
// change only when the flat scalars are rebuilt.
func FlatPhaseThresholds(enc *Enclosure, refC, waxMass, shellCap float64) (hSolJ, hLiqJ float64) {
	return flatThresholds(&enc.Material, refC, waxMass, shellCap)
}

// FlatPhase classifies an enthalpy against the FlatPhaseThresholds pair.
func FlatPhase(hSolJ, hLiqJ, enthalpyJ float64) WaxPhase {
	// Tolerance keeps float dust at the kinks from flapping transitions.
	tiny := 1e-9 * (math.Abs(hLiqJ) + 1)
	switch {
	case enthalpyJ <= hSolJ+tiny:
		return WaxSolid
	case enthalpyJ >= hLiqJ-tiny:
		return WaxLiquid
	default:
		return WaxMixed
	}
}

// PhaseTelemetry reports wax phase transitions and exchange work to an
// obs registry: the pcm.melt_started/melt_completed and
// pcm.freeze_started/freeze_completed counters, the pcm.exchange_substeps
// counter, and one pcm.melt_start/melt_complete/freeze_start/
// freeze_complete event per transition. A nil *PhaseTelemetry is a no-op.
type PhaseTelemetry struct {
	meltStart, meltDone *obs.Counter
	frzStart, frzDone   *obs.Counter
	substeps            *obs.Counter
	events              *obs.EventLog
}

// NewPhaseTelemetry binds the phase counters and event log of reg; a nil
// registry yields nil.
func NewPhaseTelemetry(reg *obs.Registry) *PhaseTelemetry {
	if reg == nil {
		return nil
	}
	return &PhaseTelemetry{
		meltStart: reg.Counter("pcm.melt_started"),
		meltDone:  reg.Counter("pcm.melt_completed"),
		frzStart:  reg.Counter("pcm.freeze_started"),
		frzDone:   reg.Counter("pcm.freeze_completed"),
		substeps:  reg.Counter("pcm.exchange_substeps"),
		events:    reg.Events(),
	}
}

// AddSubsteps counts n exchange integration sub-steps.
func (p *PhaseTelemetry) AddSubsteps(n int) {
	if p != nil {
		p.substeps.Add(int64(n))
	}
}

// Transition records a move from phase prev to phase next at sim time
// simTimeS for the enclosure named label, whose enthalpy is now enthalpyJ.
// A jump across the whole melt range counts as both its start and its
// completion.
func (p *PhaseTelemetry) Transition(prev, next WaxPhase, simTimeS float64, label string, enthalpyJ float64) {
	if p == nil || next == prev {
		return
	}
	if next > prev { // melting direction
		if prev == WaxSolid {
			p.meltStart.Inc()
			p.events.Record(simTimeS, "pcm.melt_start", label, enthalpyJ, 0)
		}
		if next == WaxLiquid {
			p.meltDone.Inc()
			p.events.Record(simTimeS, "pcm.melt_complete", label, enthalpyJ, 0)
		}
		return
	}
	// Freezing direction.
	if prev == WaxLiquid {
		p.frzStart.Inc()
		p.events.Record(simTimeS, "pcm.freeze_start", label, enthalpyJ, 0)
	}
	if next == WaxSolid {
		p.frzDone.Inc()
		p.events.Record(simTimeS, "pcm.freeze_complete", label, enthalpyJ, 0)
	}
}

// Flat returns the scalar state a struct-of-arrays driver needs to
// advance this enclosure with the Flat* primitives: the stored enthalpy,
// the enthalpy reference temperature, the wax mass, and the non-PCM
// (shell) sensible capacity.
func (s *State) Flat() (enthalpyJ, refC, waxMass, shellCapJPerK float64) {
	return s.enthalpyJ, s.refC, s.waxMass, s.shellCapacity
}
