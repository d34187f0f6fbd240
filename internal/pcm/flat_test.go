package pcm

import (
	"math"
	"testing"
)

// testEnclosure builds the validation-style enclosure used by the flat
// equivalence tests.
func testEnclosure(t *testing.T) *Enclosure {
	t.Helper()
	mat := ValidationParaffin()
	enc, err := NewEnclosure(mat, Box{LengthM: 0.10, WidthM: 0.05, HeightM: 0.02}, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestFlatExchangeMatchesState drives a State and a flat scalar copy of it
// through the same melt/freeze air profile and requires bit-identical
// enthalpy trajectories and heat flows: the flat primitives are the same
// code path the State methods run, and this pins the delegation.
func TestFlatExchangeMatchesState(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()

	hA := 4.5
	dt := 600.0
	for i := 0; i < 400; i++ {
		// A diurnal-ish air profile swinging through the melt range, with
		// excursions past both the solidus and the freeze onset.
		airC := 35 + 18*math.Sin(float64(i)/40) + 4*math.Sin(float64(i)/7)
		qState := st.ExchangeWithAir(airC, hA, dt)
		qFlat, _ := FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, airC, hA, dt)
		if math.Float64bits(qState) != math.Float64bits(qFlat) {
			t.Fatalf("step %d: absorbed heat diverged: state %v flat %v", i, qState, qFlat)
		}
		se, _, _, _ := st.Flat()
		if math.Float64bits(se) != math.Float64bits(h) {
			t.Fatalf("step %d: enthalpy diverged: state %v flat %v", i, se, h)
		}
		tState, fState := st.Temperature(), st.LiquidFraction()
		tFlat, fFlat := FlatSolve(enc, refC, waxMass, shellCap, h)
		if math.Float64bits(tState) != math.Float64bits(tFlat) ||
			math.Float64bits(fState) != math.Float64bits(fFlat) {
			t.Fatalf("step %d: solve diverged: state (%v, %v) flat (%v, %v)",
				i, tState, fState, tFlat, fFlat)
		}
	}
}

// TestFlatExchangeGuards pins the skip paths: non-positive conductance or
// step, and the supercooling guard, must leave the state untouched.
func TestFlatExchangeGuards(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, enc.Material.LiquidusC()+5) // fully liquid
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()
	for _, tc := range []struct{ airC, hA, dt float64 }{
		{30, 0, 600}, // no conductance
		{30, 5, 0},   // no time
		{30, 5, -1},  // negative time
		{enc.Material.FreezeOnsetC() + 0.5, 5, 600}, // supercooled: above onset, cooling
	} {
		before := h
		if q, n := FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, tc.airC, tc.hA, tc.dt); q != 0 || n != 0 {
			t.Errorf("airC=%v hA=%v dt=%v: absorbed %v in %d sub-steps, want 0 in 0", tc.airC, tc.hA, tc.dt, q, n)
		}
		if h != before {
			t.Errorf("airC=%v hA=%v dt=%v: enthalpy moved %v -> %v", tc.airC, tc.hA, tc.dt, before, h)
		}
	}
}

// TestFlatExchangeZeroAllocs pins the flat hot path allocation-free: the
// fleet's compiled epoch kernel calls it once per wax rack per epoch.
func TestFlatExchangeZeroAllocs(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		airC := 35 + 18*math.Sin(float64(i)/40)
		i++
		FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, airC, 4.5, 600)
		FlatSolve(enc, refC, waxMass, shellCap, h)
	})
	if allocs != 0 {
		t.Errorf("flat exchange allocates %v per call, want 0", allocs)
	}
}
