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

// solverMaterials is the oracle sweep's material set: every Table 1
// family, every solid-solid candidate (cl = cs, so the melt-range
// quadratic degenerates to a line), eicosane, the validation wax, and the
// commercial paraffin across its melting points. The 30 degC blend is
// built from the 40 degC one, the way ValidationParaffin is, because
// CommercialParaffin only sells 40-60 degC.
func solverMaterials(t testing.TB) []Material {
	t.Helper()
	mats := append(Families(), SolidSolidCandidates()...)
	mats = append(mats, Eicosane(), ValidationParaffin())
	for _, tm := range []float64{30, 40, 50, 60} {
		m, err := CommercialParaffin(max(tm, 40))
		if err != nil {
			t.Fatal(err)
		}
		m.MeltingPointC = tm
		mats = append(mats, m)
	}
	return mats
}

// solverEnclosure builds the oracle sweep's enclosure for m at a fill.
func solverEnclosure(t testing.TB, m Material, fill float64) *Enclosure {
	t.Helper()
	enc, err := NewEnclosure(m, Box{LengthM: 0.10, WidthM: 0.05, HeightM: 0.02}, 2, fill)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// bisectOracle inverts total enthalpy by bisecting the forward curve
// flatEnthalpyAt down to adjacent floats: the reference flatSolve is held
// to. It shares only flatEnthalpyAt with flatSolve: the phase comes from
// the forward curve at the solidus and liquidus, and the liquid fraction
// from the oracle's own temperature.
func bisectOracle(enc *Enclosure, refC, waxMass, shellCap, h float64) (tempC, liquidFrac float64, phase WaxPhase) {
	m := &enc.Material
	sol, liq := m.SolidusC(), m.LiquidusC()
	fwd := func(t float64) float64 { return flatEnthalpyAt(enc, refC, waxMass, shellCap, t) }
	lo, hi := sol, liq
	switch {
	case h <= fwd(sol):
		phase = WaxSolid
		for lo, hi = sol-1, sol; fwd(lo) > h; lo -= 2 * (sol - lo) {
		}
	case h >= fwd(liq):
		phase = WaxLiquid
		for lo, hi = liq, liq+1; fwd(hi) < h; hi += 2 * (hi - liq) {
		}
	default:
		phase = WaxMixed
	}
	// Invariant fwd(lo) <= h <= fwd(hi); stop when no float lies between.
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if fwd(mid) < h {
			lo = mid
		} else {
			hi = mid
		}
	}
	tempC = hi
	if h-fwd(lo) < fwd(hi)-h {
		tempC = lo
	}
	switch phase {
	case WaxSolid:
		return tempC, 0, phase
	case WaxLiquid:
		return tempC, 1, phase
	}
	return tempC, min(max((tempC-sol)/(liq-sol), 0), 1), phase
}

// roundTripErr is |flatEnthalpyAt(T) - H| relative to max(|H|, 1 J): the
// 1 J floor keeps H = 0, where T rounds to within an ulp of the
// reference, from dividing by zero.
func roundTripErr(enc *Enclosure, refC, waxMass, shellCap, h, tempC float64) float64 {
	return math.Abs(flatEnthalpyAt(enc, refC, waxMass, shellCap, tempC)-h) / max(math.Abs(h), 1)
}

// TestFlatSolveMatchesOracle bounds the closed-form inverse against the
// bisection oracle over every solver material, three fills, with and
// without the aluminum shell: 20,001 enthalpies from 0 to H(liquidus +
// 30 K) plus the phase thresholds and their neighbouring floats.
// Temperature and liquid fraction must agree within 1e-9, and the pure
// phases must come out at exactly f = 0 and f = 1 where the oracle's
// forward curve puts them. At the reference NewState sets (below the
// solidus) the answer must also round-trip through the forward curve
// within 1e-11. A reference above the solidus, where the wax term clamps
// it, is held to the oracle only: there H crosses zero inside the melt
// range, where a relative round-trip bound measures the zero crossing,
// not the solver.
func TestFlatSolveMatchesOracle(t *testing.T) {
	var worstT, worstF, worstRT float64
	for _, m := range solverMaterials(t) {
		for _, fill := range []float64{0.9, 0.5, 0.05} {
			enc := solverEnclosure(t, m, fill)
			st, err := NewState(enc, 25)
			if err != nil {
				t.Fatal(err)
			}
			_, stRef, waxMass, stShell := st.Flat()
			for _, ref := range []struct {
				c         float64
				n         int
				roundTrip bool
			}{{stRef, 20000, true}, {m.SolidusC() + 3, 2000, false}} {
				refC, n := ref.c, ref.n
				for _, shellCap := range []float64{0, stShell} {
					hSol, hLiq := FlatPhaseThresholds(enc, refC, waxMass, shellCap)
					hTop := flatEnthalpyAt(enc, refC, waxMass, shellCap, m.LiquidusC()+30)
					hs := []float64{hSol, hLiq,
						math.Nextafter(hSol, math.Inf(-1)), math.Nextafter(hSol, math.Inf(1)),
						math.Nextafter(hLiq, math.Inf(-1)), math.Nextafter(hLiq, math.Inf(1))}
					for i := 0; i <= n; i++ {
						hs = append(hs, hTop*float64(i)/float64(n))
					}
					for _, h := range hs {
						tc, f := FlatSolve(enc, refC, waxMass, shellCap, h)
						to, fo, phase := bisectOracle(enc, refC, waxMass, shellCap, h)
						if math.Abs(tc-to) > 1e-9 || math.Abs(f-fo) > 1e-9 ||
							(phase == WaxSolid && f != 0) || (phase == WaxLiquid && f != 1) {
							t.Fatalf("%s fill=%v ref=%v shell=%v H=%v: closed form (%v, %v), oracle (%v, %v) in phase %d",
								m.Name, fill, refC, shellCap, h, tc, f, to, fo, phase)
						}
						worstT, worstF = max(worstT, math.Abs(tc-to)), max(worstF, math.Abs(f-fo))
						if !ref.roundTrip {
							continue
						}
						rt := roundTripErr(enc, refC, waxMass, shellCap, h, tc)
						if rt > 1e-11 {
							t.Fatalf("%s fill=%v ref=%v shell=%v H=%v: round trip off by %.3g relative, want <= 1e-11",
								m.Name, fill, refC, shellCap, h, rt)
						}
						worstRT = max(worstRT, rt)
					}
				}
			}
		}
	}
	t.Logf("worst |dT| %.3g K, |df| %.3g, round trip %.3g relative", worstT, worstF, worstRT)
}

// TestFlatSolveSharpMelt pins the zero-width melt (MeltRangeK = 0): the
// forward curve is a step at the melting point, so the thresholds are the
// two ends of the latent step, the temperature sits exactly at the
// solidus across it, and the liquid fraction is linear in enthalpy.
func TestFlatSolveSharpMelt(t *testing.T) {
	m := ValidationParaffin()
	m.MeltRangeK = 0
	enc := solverEnclosure(t, m, 0.9)
	st, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	_, refC, waxMass, shellCap := st.Flat()
	hSol, hLiq := FlatPhaseThresholds(enc, refC, waxMass, shellCap)
	if step := hLiq - hSol; math.Abs(step-waxMass*m.HeatOfFusion) > 1e-9*step {
		t.Fatalf("latent step %v J, want waxMass*L = %v J", step, waxMass*m.HeatOfFusion)
	}
	const n = 1000
	for i := 0; i <= n; i++ {
		h := hSol + (hLiq-hSol)*float64(i)/n
		tc, f := FlatSolve(enc, refC, waxMass, shellCap, h)
		if tc != m.SolidusC() {
			t.Fatalf("H=%v: T = %v, want the solidus %v", h, tc, m.SolidusC())
		}
		if want := float64(i) / n; math.Abs(f-want) > 1e-12 {
			t.Fatalf("H=%v: f = %v, want %v", h, f, want)
		}
		if FlatPhase(hSol, hLiq, h) == WaxMixed && (f <= 0 || f >= 1) {
			t.Fatalf("H=%v: mixed phase with f = %v", h, f)
		}
	}
	for _, h := range []float64{hSol - 100, hLiq + 100} {
		tc, _ := FlatSolve(enc, refC, waxMass, shellCap, h)
		if err := roundTripErr(enc, refC, waxMass, shellCap, h, tc); err > 1e-11 {
			t.Errorf("H=%v: round trip off by %.3g relative", h, err)
		}
	}
}

// FuzzFlatSolve drives the closed-form inverse with arbitrary materials
// (an index into solverMaterials), fills and enthalpies up to H(liquidus
// + 100 K). Outputs must be finite with f in [0, 1], temperature and
// liquid fraction must never decrease as the enthalpy rises, and the
// answer must round-trip through the forward curve within 1e-11.
func FuzzFlatSolve(f *testing.F) {
	mats := solverMaterials(f)
	for i := range mats {
		f.Add(uint8(i), 0.9, 0.0)
		f.Add(uint8(i), 0.05, 1e4)
	}
	f.Add(uint8(0), 0.5, 2.5e4)
	f.Fuzz(func(t *testing.T, idx uint8, fill, h float64) {
		m := mats[int(idx)%len(mats)]
		if math.IsNaN(fill) || math.IsInf(fill, 0) {
			return
		}
		enc := solverEnclosure(t, m, 0.05+0.85*math.Abs(math.Mod(fill, 1)))
		st, err := NewState(enc, 25)
		if err != nil {
			t.Fatal(err)
		}
		_, refC, waxMass, shellCap := st.Flat()
		hSol, hLiq := FlatPhaseThresholds(enc, refC, waxMass, shellCap)
		hTop := flatEnthalpyAt(enc, refC, waxMass, shellCap, m.LiquidusC()+100)
		if !(h >= 0 && h <= hTop) {
			return
		}
		tc, lf := FlatSolve(enc, refC, waxMass, shellCap, h)
		if math.IsNaN(tc) || math.IsInf(tc, 0) || !(lf >= 0 && lf <= 1) {
			t.Fatalf("%s H=%v: T=%v f=%v", m.Name, h, tc, lf)
		}
		if err := roundTripErr(enc, refC, waxMass, shellCap, h, tc); err > 1e-11 {
			t.Fatalf("%s H=%v: round trip off by %.3g relative", m.Name, h, err)
		}
		for _, up := range []float64{math.Nextafter(h, math.Inf(1)), h + (hLiq-hSol)/7} {
			t2, f2 := FlatSolve(enc, refC, waxMass, shellCap, up)
			if t2 < tc || f2 < lf {
				t.Fatalf("%s: H %v -> %v moved (T, f) from (%v, %v) to (%v, %v)", m.Name, h, up, tc, lf, t2, f2)
			}
		}
	})
}
