package thermal

import (
	"math"
	"testing"

	"repro/internal/pcm"
	"repro/internal/units"
	"repro/internal/workload"
)

// The compiled flat-array stepper must be indistinguishable from the
// original pointer-graph path (stepSlow). These tests pin the two against
// each other on progressively nastier inputs: a realistic two-day melt/
// freeze cycle, per-step flow variation (the geff cache's invalidation),
// and topology mutation between steps (the compile cache's invalidation).

// stepSlow is the original pointer-graph stepper, retained as the
// reference path the compiled stepper is pinned against in tests. It walks
// the air stream twice (once in marchAir for the wax heat, once re-inlined
// for the equilibrium form) and allocates several maps per step.
func (m *Model) stepSlow(dt float64) {
	m.stepCount.Inc()
	t := m.clock
	if m.FlowFunc != nil {
		m.FlowM3s = m.FlowFunc(t)
	}
	heat := m.marchAir()

	// Conduction sums (explicit in neighbor temperatures).
	condPower := make(map[*Node]float64)
	condG := make(map[*Node]float64)
	for _, l := range m.links {
		condPower[l.a] += l.g * l.b.temperature
		condPower[l.b] += l.g * l.a.temperature
		condG[l.a] += l.g
		condG[l.b] += l.g
	}
	// Convective conductances per node from the march (recompute geff and
	// local air temps for the equilibrium form).
	mcp := units.AdvectionConductance(m.FlowM3s)
	convG := make(map[*Node]float64)
	convAir := make(map[*Node]float64)
	air := m.InletC
	for _, st := range m.stations {
		smcp := mcp * st.FlowShare
		local := air
		stationQ := 0.0
		for _, at := range st.attachments {
			g := m.effectiveConductance(at)
			geff := smcp * (1 - math.Exp(-g/smcp))
			if at.node != nil {
				convG[at.node] += geff
				convAir[at.node] += geff * local
			}
			var surf float64
			if at.node != nil {
				surf = at.node.temperature
			} else {
				surf = at.wax.Temperature()
			}
			q := geff * (surf - local)
			local += q / smcp
			stationQ += q
		}
		air += stationQ / mcp
	}

	for _, n := range m.nodes {
		p := 0.0
		if n.Power != nil {
			p = n.Power(t)
		}
		gTot := condG[n] + convG[n]
		if gTot <= 0 {
			// Pure accumulator: all power integrates.
			n.temperature += p * dt / n.CapacityJPerK
			continue
		}
		eq := (p + condPower[n] + convAir[n]) / gTot
		tau := n.CapacityJPerK / gTot
		n.temperature = eq + (n.temperature-eq)*math.Exp(-dt/tau)
	}

	// Wax exchanges the marched heat over the step.
	for _, st := range m.stations {
		for _, at := range st.attachments {
			if at.wax != nil {
				if m.reg != nil {
					at.wax.SetSimTime(m.clock)
				}
				q := heat[at.wax] // W from wax into air
				at.wax.AddHeat(-q * dt)
			}
		}
	}

	m.clock += dt
}

// buildTracePair constructs two identical wax-carrying server-like models
// driven by the Google two-day utilization trace: two CPUs in a wake
// station with a wax box, bulk components downstream, a conduction link,
// an unattached accumulator node, and a fan curve that steps the flow with
// load. One model is stepped with the compiled path, the other with the
// slow reference, so each needs its own wax state.
func buildTracePair(t *testing.T, tr *workload.Trace) (compiled, slow *Model, waxC, waxS *pcm.State) {
	t.Helper()
	u := func(tm float64) float64 {
		i := int((tm - tr.Total.Start) / tr.Total.Step)
		if i < 0 {
			i = 0
		}
		if i >= tr.Total.Len() {
			i = tr.Total.Len() - 1
		}
		return tr.Total.Values[i]
	}
	build := func() (*Model, *pcm.State) {
		flow := units.CFMToCubicMetersPerSecond(40)
		m, err := NewModel(25, flow)
		if err != nil {
			t.Fatal(err)
		}
		// Fans step between idle and loaded speed with load; both below and
		// above the reference flow so velocity scaling sees ratios on each
		// side of 1.
		m.FlowFunc = func(tm float64) float64 {
			if u(tm) >= 0.5 {
				return flow * 1.15
			}
			return flow * 0.85
		}
		// Tuned so the wake air crosses the paraffin's melt range (38-40)
		// at the midday peak and falls below the 36 degC freeze onset in
		// the overnight trough.
		cpuPower := func(tm float64) float64 { return 10 + 115*u(tm) }
		wake, err := m.AddWakeStation("cpu wake", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cpu0, err := m.AddNode("cpu0", 800, cpuPower)
		if err != nil {
			t.Fatal(err)
		}
		cpu1, err := m.AddNode("cpu1", 800, cpuPower)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(wake, cpu0, 10, true); err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(wake, cpu1, 10, true); err != nil {
			t.Fatal(err)
		}
		w := waxState(t)
		if err := m.AttachWax(wake, w, 0.8, true); err != nil {
			t.Fatal(err)
		}
		dimm, err := m.AddNode("dimms", 400, func(tm float64) float64 { return 4 + 20*u(tm) })
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("dimms"), dimm, 6, true); err != nil {
			t.Fatal(err)
		}
		baffle, err := m.AddNode("baffle", 1500, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("baffle"), baffle, 3, false); err != nil {
			t.Fatal(err)
		}
		if err := m.Link(cpu0, baffle, 2); err != nil {
			t.Fatal(err)
		}
		// Pure accumulator: no heat path, exercises the gTot <= 0 branch.
		if _, err := m.AddNode("lump", 5000, ConstantPower(0.5)); err != nil {
			t.Fatal(err)
		}
		return m, w
	}
	mc, wc := build()
	ms, ws := build()
	return mc, ms, wc, ws
}

// comparePair asserts the two models agree to tol after identical driving.
func comparePair(t *testing.T, step int, mc, ms *Model, waxC, waxS *pcm.State, tol float64) {
	t.Helper()
	for i, n := range mc.Nodes() {
		if d := math.Abs(n.Temperature() - ms.Nodes()[i].Temperature()); d > tol {
			t.Fatalf("step %d: node %s diverged by %v", step, n.Name, d)
		}
	}
	for i, st := range mc.Stations() {
		if d := math.Abs(st.AirTemperature() - ms.Stations()[i].AirTemperature()); d > tol {
			t.Fatalf("step %d: station %s air diverged by %v", step, st.Name, d)
		}
	}
	if waxC != nil {
		if d := math.Abs(waxC.LiquidFraction() - waxS.LiquidFraction()); d > tol {
			t.Fatalf("step %d: wax liquid fraction diverged by %v", step, d)
		}
	}
}

func TestCompiledMatchesSlowTwoDayTrace(t *testing.T) {
	tr := workload.GoogleTwoDay()
	mc, ms, waxC, waxS := buildTracePair(t, tr)

	const dt = 30.0
	steps := int((tr.Total.End() - tr.Total.Start) / dt)
	maxLiq, minAfterMax := 0.0, 1.0
	for i := 0; i < steps; i++ {
		mc.Step(dt)
		ms.stepSlow(dt)
		if i%16 == 0 { // full comparison every 8 sim-minutes
			comparePair(t, i, mc, ms, waxC, waxS, 1e-9)
		}
		if f := waxC.LiquidFraction(); f > maxLiq {
			maxLiq = f
			minAfterMax = f
		} else if f < minAfterMax {
			minAfterMax = f
		}
	}
	comparePair(t, steps, mc, ms, waxC, waxS, 1e-9)
	if mc.Clock() != ms.Clock() {
		t.Fatalf("clocks diverged: %v vs %v", mc.Clock(), ms.Clock())
	}
	// The run must actually include melt and freeze transitions, or the
	// equivalence covers nothing interesting.
	if maxLiq < 0.3 {
		t.Fatalf("wax never substantially melted (max liquid %v); trace drive too weak", maxLiq)
	}
	if maxLiq-minAfterMax < 0.05 {
		t.Fatalf("wax never refroze after the peak (max %v, later min %v)", maxLiq, minAfterMax)
	}
}

// TestCompiledMatchesSlowVaryingFlow drives the flow through a different
// value every step, so a stale cached geff (or relaxation factor) would
// diverge immediately.
func TestCompiledMatchesSlowVaryingFlow(t *testing.T) {
	build := func() (*Model, *Node) {
		flow := units.CFMToCubicMetersPerSecond(40)
		m, err := NewModel(25, flow)
		if err != nil {
			t.Fatal(err)
		}
		m.FlowFunc = func(tm float64) float64 {
			return flow * (0.6 + 0.5*math.Abs(math.Sin(tm/137)))
		}
		n, err := m.AddNode("cpu", 500, ConstantPower(46))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("s"), n, 8, true); err != nil {
			t.Fatal(err)
		}
		fixed, err := m.AddNode("psu", 900, ConstantPower(25))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("psu"), fixed, 5, false); err != nil {
			t.Fatal(err)
		}
		return m, n
	}
	mc, _ := build()
	ms, _ := build()
	for i := 0; i < 2000; i++ {
		mc.Step(7)
		ms.stepSlow(7)
		comparePair(t, i, mc, ms, nil, nil, 1e-9)
	}
	if mc.FlowM3s != ms.FlowM3s {
		t.Fatalf("flow diverged: %v vs %v", mc.FlowM3s, ms.FlowM3s)
	}
}

// TestCompiledRecompilesOnMutation grows the network between steps: the
// compiled form must be discarded and rebuilt, staying equivalent to the
// slow path replaying the same history.
func TestCompiledRecompilesOnMutation(t *testing.T) {
	build := func() *Model {
		flow := units.CFMToCubicMetersPerSecond(40)
		m, err := NewModel(25, flow)
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.AddNode("cpu", 500, ConstantPower(46))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("s"), n, 8, true); err != nil {
			t.Fatal(err)
		}
		return m
	}
	grow := func(m *Model) {
		n, err := m.AddNode("late", 300, ConstantPower(15))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(m.AddStation("late"), n, 4, false); err != nil {
			t.Fatal(err)
		}
		if err := m.Link(m.Nodes()[0], n, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	mc, ms := build(), build()
	for i := 0; i < 50; i++ {
		mc.Step(5)
		ms.stepSlow(5)
	}
	grow(mc)
	grow(ms)
	for i := 0; i < 50; i++ {
		mc.Step(5)
		ms.stepSlow(5)
		comparePair(t, i, mc, ms, nil, nil, 1e-9)
	}
	// A changed flow share via a newly appended wake station also recompiles.
	addWake := func(m *Model) {
		w, err := m.AddWakeStation("wake", 0.4)
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.AddNode("wakenode", 250, ConstantPower(30))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(w, n, 6, true); err != nil {
			t.Fatal(err)
		}
	}
	addWake(mc)
	addWake(ms)
	for i := 0; i < 50; i++ {
		mc.Step(5)
		ms.stepSlow(5)
	}
	comparePair(t, 50, mc, ms, nil, nil, 1e-9)
}

// TestCompiledSteadyStateMatchesStep verifies the compiled solver still
// lands on a transient fixed point (SolveSteadyState and Step share the
// compiled arrays but distinct code paths).
func TestCompiledSteadyStateMatchesStep(t *testing.T) {
	m, n, _ := singleNodeModel(t, 46)
	if _, err := m.SolveSteadyState(1e-10, 0); err != nil {
		t.Fatal(err)
	}
	before := n.Temperature()
	m.Step(120)
	if d := math.Abs(n.Temperature() - before); d > 1e-6 {
		t.Fatalf("steady state moved %v under Step", d)
	}
}

// TestStepZeroAllocations asserts the compiled stepper's headline
// property on a wax-carrying network (the reference-server assertion
// lives in server_alloc_test.go, package thermal_test).
func TestStepZeroAllocations(t *testing.T) {
	tr := workload.GoogleTwoDay()
	mc, _, _, _ := buildTracePair(t, tr)
	mc.Step(5) // compile
	if allocs := testing.AllocsPerRun(200, func() { mc.Step(5) }); allocs != 0 {
		t.Fatalf("Step allocates %v times per call", allocs)
	}
}

// BenchmarkModelStepCompiledVsSlow pairs the compiled and reference
// steppers on the same network so regressions show up in both ns/op and
// allocs/op.
func BenchmarkModelStepCompiledVsSlow(b *testing.B) {
	build := func() *Model {
		flow := units.CFMToCubicMetersPerSecond(77)
		m, err := NewModel(25, flow)
		if err != nil {
			b.Fatal(err)
		}
		wake, err := m.AddWakeStation("wake", 0.3)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			n, err := m.AddNode("cpu", 800, ConstantPower(85))
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Attach(wake, n, 5, true); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			n, err := m.AddNode("bulk", 3000, ConstantPower(20))
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Attach(m.AddStation("s"), n, 5, true); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	b.Run("compiled", func(b *testing.B) {
		m := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(5)
		}
	})
	b.Run("slow", func(b *testing.B) {
		m := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.stepSlow(5)
		}
	})
}
