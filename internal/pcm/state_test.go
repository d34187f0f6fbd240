package pcm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

// validationBox reproduces the Section 3 experiment: ~100 ml aluminum box
// holding 90 ml (~70 g) of wax.
func validationEnclosure(t *testing.T) *Enclosure {
	t.Helper()
	box := Box{LengthM: 0.10, WidthM: 0.10, HeightM: 0.01} // 100 ml
	enc, err := NewEnclosure(ValidationParaffin(), box, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func oneUEnclosure(t *testing.T) *Enclosure {
	t.Helper()
	m, err := CommercialParaffin(41)
	if err != nil {
		t.Fatal(err)
	}
	// Two boxes totalling ~1.26 l of box volume, 95%-of-max fill.
	box := Box{LengthM: 0.20, WidthM: 0.15, HeightM: 0.021}
	enc, err := NewEnclosure(m, box, 2, 0.94)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestEnclosureGeometry(t *testing.T) {
	enc := validationEnclosure(t)
	if math.Abs(enc.Box.Volume()-0.1) > 1e-9 {
		t.Errorf("box volume = %v l, want 0.1", enc.Box.Volume())
	}
	if math.Abs(enc.WaxVolume()-0.09) > 1e-9 {
		t.Errorf("wax volume = %v l, want 0.09", enc.WaxVolume())
	}
	// 90 ml at 0.8 g/ml = 72 g, matching the paper's "70 grams".
	if m := enc.WaxMass(); math.Abs(m-0.072) > 1e-9 {
		t.Errorf("wax mass = %v kg, want 0.072", m)
	}
	// 72 g * 200 J/g = 14.4 kJ of latent storage.
	if c := enc.LatentCapacity(); math.Abs(c-14400) > 1e-6 {
		t.Errorf("latent capacity = %v J, want 14400", c)
	}
	if enc.SurfaceArea() <= 0 || enc.FrontalArea() <= 0 {
		t.Error("areas must be positive")
	}
}

func TestEnclosureValidation(t *testing.T) {
	m := ValidationParaffin()
	box := Box{LengthM: 0.1, WidthM: 0.1, HeightM: 0.01}
	if _, err := NewEnclosure(m, box, 0, 0.9); err == nil {
		t.Error("accepted zero boxes")
	}
	if _, err := NewEnclosure(m, box, 1, 0); err == nil {
		t.Error("accepted zero fill")
	}
	if _, err := NewEnclosure(m, box, 1, 1.2); err == nil {
		t.Error("accepted fill > 1")
	}
	// Full fill leaves no expansion headroom and must be rejected.
	if _, err := NewEnclosure(m, box, 1, 1.0); err == nil {
		t.Error("accepted fill with no expansion headroom")
	}
	if _, err := NewEnclosure(m, Box{}, 1, 0.9); err == nil {
		t.Error("accepted zero-volume box")
	}
	bad := m
	bad.HeatOfFusion = 0
	if _, err := NewEnclosure(bad, box, 1, 0.9); err == nil {
		t.Error("accepted invalid material")
	}
}

func TestSplittingBoxesRaisesArea(t *testing.T) {
	m, _ := CommercialParaffin(45)
	one, err := NewEnclosure(m, Box{0.4, 0.2, 0.05}, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewEnclosure(m, Box{0.1, 0.2, 0.05}, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.WaxVolume()-four.WaxVolume()) > 1e-9 {
		t.Fatalf("volumes differ: %v vs %v", one.WaxVolume(), four.WaxVolume())
	}
	if four.SurfaceArea() <= one.SurfaceArea() {
		t.Errorf("splitting boxes should raise surface area: %v <= %v",
			four.SurfaceArea(), one.SurfaceArea())
	}
}

func TestStateInitialEquilibrium(t *testing.T) {
	enc := validationEnclosure(t)
	s, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Temperature(); math.Abs(got-25) > 1e-6 {
		t.Errorf("initial temperature = %v, want 25", got)
	}
	if f := s.LiquidFraction(); f != 0 {
		t.Errorf("initial liquid fraction = %v, want 0 (solid at 25 degC)", f)
	}
	hot, err := NewState(enc, 60)
	if err != nil {
		t.Fatal(err)
	}
	if f := hot.LiquidFraction(); f != 1 {
		t.Errorf("liquid fraction at 60 degC = %v, want 1", f)
	}
	if _, err := NewState(nil, 25); err == nil {
		t.Error("accepted nil enclosure")
	}
}

func TestAddHeatMeltsWax(t *testing.T) {
	enc := validationEnclosure(t)
	s, _ := NewState(enc, 38) // just below the 37-41 melt range midpoint
	// Dump in exactly the latent capacity plus a bit of sensible heat; the
	// wax must end up fully or nearly fully molten.
	s.AddHeat(enc.LatentCapacity() + 2000)
	if f := s.LiquidFraction(); f < 0.99 {
		t.Errorf("liquid fraction after latent+sensible input = %v", f)
	}
	if temp := s.Temperature(); temp < 40 {
		t.Errorf("temperature after melt = %v", temp)
	}
}

func TestStoredAndRemainingLatent(t *testing.T) {
	enc := validationEnclosure(t)
	s, _ := NewState(enc, 25)
	if s.StoredLatent() != 0 {
		t.Error("solid wax should store no latent heat")
	}
	if math.Abs(s.RemainingLatent()-enc.LatentCapacity()) > 1e-6 {
		t.Error("remaining latent should equal full capacity when solid")
	}
	s.Reset(60)
	if math.Abs(s.StoredLatent()-enc.LatentCapacity()) > 1e-6 {
		t.Error("liquid wax should store full latent heat")
	}
	if s.RemainingLatent() > 1e-6 {
		t.Error("liquid wax should have no remaining capacity")
	}
}

func TestExchangeWithAirConservesEnergy(t *testing.T) {
	enc := oneUEnclosure(t)
	s, _ := NewState(enc, 25)
	t0 := s.Temperature()
	absorbed := s.ExchangeWithAir(50, 2.7, 3600)
	if absorbed <= 0 {
		t.Fatalf("wax exposed to hot air absorbed %v J", absorbed)
	}
	// Energy bookkeeping: enthalpy change equals heat absorbed.
	wantEnthalpy := s.enthalpyAt(t0) + absorbed
	if math.Abs(s.enthalpyJ-wantEnthalpy) > 1 {
		t.Errorf("enthalpy %v, want %v", s.enthalpyJ, wantEnthalpy)
	}
	// Temperature approaches but does not exceed the air temperature.
	if temp := s.Temperature(); temp > 50+1e-9 || temp <= t0 {
		t.Errorf("temperature after exchange = %v", temp)
	}
}

func TestExchangeReleasesWhenAirCool(t *testing.T) {
	enc := oneUEnclosure(t)
	s, _ := NewState(enc, 55) // molten
	released := s.ExchangeWithAir(30, 2.7, 8*3600)
	if released >= 0 {
		t.Fatalf("molten wax in cool air should release heat, got %v", released)
	}
	if f := s.LiquidFraction(); f > 0.05 {
		t.Errorf("after 8 h of cool air, liquid fraction = %v, want ~0", f)
	}
}

func TestExchangeMeltFreezeCycle(t *testing.T) {
	// A full melt/freeze cycle returns (almost exactly) the absorbed heat.
	enc := oneUEnclosure(t)
	s, _ := NewState(enc, 30)
	in := s.ExchangeWithAir(55, 2.7, 12*3600)
	out := s.ExchangeWithAir(30, 2.7, 24*3600)
	if in <= 0 || out >= 0 {
		t.Fatalf("cycle directions wrong: in=%v out=%v", in, out)
	}
	// After a long cool-down the state returns near 30 degC, so energy out
	// nearly equals energy in.
	if math.Abs(in+out) > 0.02*in {
		t.Errorf("cycle imbalance: in=%v out=%v", in, out)
	}
}

func TestExchangeDegenerateInputs(t *testing.T) {
	enc := validationEnclosure(t)
	s, _ := NewState(enc, 25)
	if q := s.ExchangeWithAir(50, 0, 100); q != 0 {
		t.Error("zero conductance should exchange nothing")
	}
	if q := s.ExchangeWithAir(50, 2, 0); q != 0 {
		t.Error("zero duration should exchange nothing")
	}
	if q := s.ExchangeWithAir(25, 2, 1000); math.Abs(q) > 1e-6 {
		t.Error("equilibrium exchange should be ~zero")
	}
}

func TestMeltTimescaleMatchesPaper(t *testing.T) {
	// Section 3: the 90 ml box "reduces temperatures for two hours while
	// the wax melts". With hA ~0.6 W/K and ~6 K of driving temperature
	// difference the 14.4 kJ box should take roughly 1.5-4 hours to melt.
	enc := validationEnclosure(t)
	s, _ := NewState(enc, 30)
	hA, airC := 0.6, 46.0
	hours := 0.0
	for s.LiquidFraction() < 1 && hours < 24 {
		s.ExchangeWithAir(airC, hA, 60)
		hours += 1.0 / 60
	}
	if hours < 1 || hours > 5 {
		t.Errorf("validation box melt time = %.2f h, want ~2 h", hours)
	}
}

// Property: exchange never overshoots the air temperature and conserves
// sign (heat flows from hot to cold).
func TestExchangeSignProperty(t *testing.T) {
	enc := validationEnclosure(t)
	f := func(rawStart, rawAir float64) bool {
		start := 20 + math.Mod(math.Abs(rawStart), 40)
		air := 20 + math.Mod(math.Abs(rawAir), 40)
		s, err := NewState(enc, start)
		if err != nil {
			return false
		}
		q := s.ExchangeWithAir(air, 1.5, 1800)
		temp := s.Temperature()
		switch {
		case air > start:
			return q >= 0 && temp <= air+1e-6 && temp >= start-1e-6
		case air < start:
			return q <= 0 && temp >= air-1e-6 && temp <= start+1e-6
		default:
			return math.Abs(q) < 1e-6
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The paper's Section 6 claim, reproduced: the metal mesh of the sprinting
// work is "not necessary when melting paraffin over the course of several
// hours" — over a multi-hour discharge the mesh barely changes the energy
// returned, while over a sprint-scale discharge (a minute) it dominates.
func TestMeshMattersOnlyAtSprintTimescales(t *testing.T) {
	discharge := func(boost, seconds float64) float64 {
		m, err := CommercialParaffin(45)
		if err != nil {
			t.Fatal(err)
		}
		m.FreezeHysteresisK = 0 // isolate the conduction effect
		enc, err := NewEnclosure(m, Box{LengthM: 0.2, WidthM: 0.15, HeightM: 0.021}, 2, 0.94)
		if err != nil {
			t.Fatal(err)
		}
		enc.MeshConductivityBoost = boost
		s, err := NewState(enc, 55) // molten
		if err != nil {
			t.Fatal(err)
		}
		released := 0.0
		for elapsed := 0.0; elapsed < seconds; elapsed += 10 {
			released -= s.ExchangeWithAir(25, 6.6, 10)
		}
		return released
	}

	// Multi-hour discharge: plain wax returns nearly what meshed wax does.
	plainLong := discharge(1, 8*3600)
	meshLong := discharge(10, 8*3600)
	if plainLong < 0.85*meshLong {
		t.Errorf("8 h discharge: plain %v J vs meshed %v J — mesh should not matter", plainLong, meshLong)
	}
	// Fast discharge (the sprinting regime): once a solid crust has grown,
	// conduction gates the plain wax and the mesh pulls clearly ahead.
	plainShort := discharge(1, 2700)
	meshShort := discharge(10, 2700)
	if meshShort < 1.2*plainShort {
		t.Errorf("45 min discharge: plain %v J vs meshed %v J — mesh should dominate", plainShort, meshShort)
	}
}

func BenchmarkExchangeWithAir(b *testing.B) {
	m, err := CommercialParaffin(50)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEnclosure(m, Box{LengthM: 0.25, WidthM: 0.213, HeightM: 0.02}, 4, 0.94)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewState(enc, 30)
	if err != nil {
		b.Fatal(err)
	}
	air := 40.0
	for i := 0; i < b.N; i++ {
		// Alternate hot and cool air so the state keeps cycling.
		if i%1000 == 0 {
			air = 96 - air
		}
		s.ExchangeWithAir(air, 11.6, 300)
	}
}

// flatSolveSink keeps BenchmarkFlatSolve's results live.
var flatSolveSink float64

// BenchmarkFlatSolve times the enthalpy inverse alone on the
// BenchmarkExchangeWithAir enclosure, sweeping the stored enthalpy up
// through the solid, melting and liquid regimes, a third of the samples
// in each.
func BenchmarkFlatSolve(b *testing.B) {
	m, err := CommercialParaffin(50)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEnclosure(m, Box{LengthM: 0.25, WidthM: 0.213, HeightM: 0.02}, 4, 0.94)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewState(enc, 30)
	if err != nil {
		b.Fatal(err)
	}
	_, refC, waxMass, shellCap := s.Flat()
	hSol, hLiq := FlatPhaseThresholds(enc, refC, waxMass, shellCap)
	edges := [...]float64{0, hSol, hLiq, flatEnthalpyAt(enc, refC, waxMass, shellCap, m.LiquidusC()+10)}
	hs := make([]float64, 1024) // a power of two, so the loop indexes by mask
	for i := range hs {
		x := 3 * float64(i) / float64(len(hs))
		r := int(x)
		hs[i] = edges[r] + (x-float64(r))*(edges[r+1]-edges[r])
	}
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, f := FlatSolve(enc, refC, waxMass, shellCap, hs[i&(len(hs)-1)])
		sum += t + f
	}
	flatSolveSink = sum
}

func TestInstrumentedPhaseTransitions(t *testing.T) {
	enc := validationEnclosure(t)
	s, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s.Instrument(reg, "probe")

	m := enc.Material
	sensibleToLiquidus := enc.WaxMass() * m.SpecificHeatSolid * (m.LiquidusC() - 25)
	// Melt fully: sensible heat to the liquidus, the full latent capacity,
	// and a margin to land clearly in the liquid phase.
	total := sensibleToLiquidus + enc.LatentCapacity() + 500
	for i := 0; i < 20; i++ {
		s.AddHeat(total / 20)
	}
	if f := s.LiquidFraction(); f < 1 {
		t.Fatalf("liquid fraction = %v after melting heat", f)
	}
	// Freeze back by withdrawing the same heat.
	for i := 0; i < 20; i++ {
		s.AddHeat(-total / 20)
	}
	if f := s.LiquidFraction(); f > 0 {
		t.Fatalf("liquid fraction = %v after freezing", f)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"pcm.melt_started", "pcm.melt_completed",
		"pcm.freeze_started", "pcm.freeze_completed",
	} {
		if got := snap.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	events := reg.Events().Events()
	if len(events) < 4 {
		t.Fatalf("event log has %d events, want >= 4", len(events))
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
		if e.Name != "probe" {
			t.Errorf("event labeled %q, want \"probe\"", e.Name)
		}
	}
	for _, k := range []string{"pcm.melt_start", "pcm.melt_complete", "pcm.freeze_start", "pcm.freeze_complete"} {
		if kinds[k] != 1 {
			t.Errorf("event kind %s seen %d times, want 1", k, kinds[k])
		}
	}
}

func TestInstrumentedExchangeCountsSubsteps(t *testing.T) {
	enc := validationEnclosure(t)
	s, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s.Instrument(reg, "probe")
	s.ExchangeWithAir(60, 11.6, 3600)
	snap := reg.Snapshot()
	if snap.Counters["pcm.exchange_substeps"] <= 0 {
		t.Error("exchange substep counter did not advance")
	}
}
