package fleet

import (
	"repro/internal/pcm"
	"repro/internal/server"
)

// This file is the fleet's compile pass: the rack layout — rackSpec
// structs pointing at shared Configs and ROMs — is lowered at New into
// struct-of-arrays form, and the epoch's parallel section runs as a fused
// per-shard kernel (stepShard) marching contiguous rack ranges over flat
// float64 slices. It is the fleet's only kernel; an attached telemetry
// registry changes nothing here.
//
// What is deduplicated per class, and what stays per rack:
//
//   - Per class (compiledClass, one per ClassSpec): the component power
//     table flattened to idle/dynamic pairs (same summation order as
//     Config.PowerAt, so the kernel is bit-identical to it), the shared
//     *server.ROM for the wake-air fit and wax conductance, the shared
//     *pcm.Enclosure (fill-independent geometry and material constants —
//     see pcm.FlatExchangeWithAir), the cold-aisle setpoint, and the
//     initial flat wax state every rack of the class starts from.
//   - Per rack (runState): the four pcm flat-state scalars (enthalpy,
//     reference temperature, wax mass, shell capacity) plus the phase
//     thresholds and last phase as contiguous slices, alongside the fault
//     multipliers (capLost/flowLoss/haScale/retention) and ceilings.
//
// The pcm arithmetic is the same code pcm.State runs (pcm/flat.go) and
// the power loop preserves Config.PowerAt's component order, so a run
// reproduces, bit for bit, a fleet of per-rack pcm.States advanced on the
// ROM's wake air; TestKernelPinnedDigest holds it to a pinned digest
// over a faulted, autoscaled run. Wax phase transitions are classified in
// the sequential merge step, not here, so their telemetry is in rack
// order at any worker count.

// compiledClass holds the constants every rack of one class shares.
type compiledClass struct {
	cfg     *server.Config
	rom     *server.ROM // nil when the class carries no wax
	enc     *pcm.Enclosure
	inletC  float64
	servers float64 // rack population as float, the kernel's scale factor
	hA      float64 // wax convective conductance, W/K

	// compIdle/compDyn flatten cfg.Components in order: PowerAt at
	// nominal frequency is sum(idle[k] + u*dyn[k]) in component order.
	compIdle, compDyn []float64

	// Initial flat wax state (pcm.State.Flat of a fresh NewWaxState, its
	// phase thresholds, phase and unspent latent fraction) and the latent
	// capacity; zero for a class without wax.
	initEnthalpy, initRefC, initWaxMass, initShellCap float64
	initHSol, initHLiq                                float64
	initPhase                                         pcm.WaxPhase
	initRemaining                                     float64
	latentJ                                           float64
}

// compiled is the struct-of-arrays lowering of one Fleet, built once at
// New and immutable afterwards; per-run mutable wax state lives in
// runState's flat slices.
type compiled struct {
	classes []compiledClass
	class   []int32 // rack -> class index
}

// compile lowers the fleet into its struct-of-arrays form. Called at the
// end of New, after the racks are laid out and every ROM is derived.
func (f *Fleet) compile() error {
	c := &compiled{
		classes: make([]compiledClass, len(f.classes)),
		class:   make([]int32, len(f.racks)),
	}
	for r, rk := range f.racks {
		c.class[r] = int32(rk.class)
		cl := &c.classes[rk.class]
		if cl.cfg != nil {
			continue // class already compiled
		}
		cl.cfg = rk.cfg
		cl.rom = rk.rom
		cl.inletC = rk.cfg.InletC
		cl.servers = float64(rk.servers)
		cl.compIdle = make([]float64, len(rk.cfg.Components))
		cl.compDyn = make([]float64, len(rk.cfg.Components))
		for k, comp := range rk.cfg.Components {
			cl.compIdle[k] = comp.IdleW
			cl.compDyn[k] = comp.PeakW - comp.IdleW
		}
		if rk.rom == nil {
			continue
		}
		cl.enc = rk.rom.Enclosure
		cl.hA = rk.rom.HA
		cl.latentJ = rk.rom.LatentCapacity()
		// One state per class seeds every rack's flat state.
		wax, err := rk.rom.NewWaxState()
		if err != nil {
			return err
		}
		cl.initEnthalpy, cl.initRefC, cl.initWaxMass, cl.initShellCap = wax.Flat()
		cl.initHSol, cl.initHLiq = pcm.FlatPhaseThresholds(cl.enc, cl.initRefC, cl.initWaxMass, cl.initShellCap)
		cl.initPhase = pcm.FlatPhase(cl.initHSol, cl.initHLiq, cl.initEnthalpy)
		_, lf := pcm.FlatSolve(cl.enc, cl.initRefC, cl.initWaxMass, cl.initShellCap, cl.initEnthalpy)
		cl.initRemaining = waxRemainingFrac(lf, cl.latentJ)
	}
	f.comp = c
	return nil
}

// waxRemainingFrac is a wax rack's unspent latent-capacity fraction given
// its liquid fraction. The (1-lf)*L/L form reproduces
// pcm.State.RemainingLatent()/L bit for bit, which the balancer's views
// depend on. A rack without wax — or with wax fully degraded away — has
// latentJ zero; guard it so the fraction is 0, not NaN.
func waxRemainingFrac(liquidFrac, latentJ float64) float64 {
	if latentJ <= 0 {
		return 0
	}
	return clamp01((1 - liquidFrac) * latentJ / latentJ)
}

// stepShard is the fused epoch kernel: it advances the contiguous rack
// range [lo, hi) by one epoch over the flat arrays — the per-server
// physics of the fluid engine (power at the assigned utilization; wax
// exchanging heat with the ROM's wake air), scaled by the live rack
// population, with the fault state folded in: a room excursion and
// reduced airflow raise the wake temperature the wax sees, and lost
// capacity idles its share of the servers. It returns the exchange
// sub-steps taken. Called only by the worker owning the shard; every slice
// element it touches is indexed by r, so shards never share state.
func (f *Fleet) stepShard(lo, hi int, dt float64, st *runState) (substeps int) {
	c := f.comp
	buf := st.buf
	for r := lo; r < hi; r++ {
		if f.testStepHook != nil {
			f.testStepHook(r)
		}
		cl := &c.classes[c.class[r]]
		live := 1 - st.capLost[r]
		if live <= 0 {
			// Rack fully offline: no power, no airflow, wax coasts.
			buf.powerW[r] = 0
			buf.coolingW[r] = 0
			if cl.rom != nil {
				_, lf := pcm.FlatSolve(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
				buf.liquid[r] = lf
			}
			continue
		}
		// The assignment is in nominal-rack units; the live servers run
		// proportionally hotter.
		u := buf.assign[r] / live
		if u > 1 {
			u = 1
		}
		scale := cl.servers * live
		power := 0.0
		for k, idle := range cl.compIdle {
			power += idle + u*cl.compDyn[k]
		}
		coolingPerServer := power
		if cl.rom != nil {
			wake := cl.rom.WakeAirC(u, 1)
			if st.roomRise != 0 || st.flowLoss[r] != 0 {
				// Reduced flow carries the same heat on less air, so the wake
				// rise over inlet scales inversely with the flow fraction;
				// the room excursion shifts the whole profile up.
				rise := wake - cl.inletC
				wake = cl.inletC + st.roomRise + rise/(1-st.flowLoss[r])
			}
			q, n := pcm.FlatExchangeWithAir(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r],
				&st.wEnthalpy[r], wake, cl.hA*st.haScale[r], dt)
			substeps += n
			coolingPerServer = power - q/dt
			if q > 0 {
				buf.absorbed[r] += q * scale
			} else {
				buf.released[r] -= q * scale
			}
			_, lf := pcm.FlatSolve(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
			buf.liquid[r] = lf
		}
		buf.powerW[r] = power * scale
		buf.coolingW[r] = coolingPerServer * scale
	}
	return substeps
}

// waxShardWeight approximates a wax rack's step cost relative to a bare
// rack's: a wax rack runs the exchange sub-steps, each with a math.Exp
// and a closed-form enthalpy solve, on top of the power loop, so weighted
// sharding keeps a mixed fleet's shards balanced where equal rack counts
// would park the bare-rack workers at the barrier. On the million-server
// benchmark at two workers, 8 still runs at or ahead of 4 and 3.
const waxShardWeight = 8

// shardBounds partitions the racks into `workers` contiguous ranges of
// near-equal stepping cost. Sharding never affects results — each rack is
// owned by exactly one worker and the merge order is fixed — so the cuts
// only matter for parallel efficiency.
func (f *Fleet) shardBounds(workers int) []int {
	total := 0
	for i := range f.racks {
		w := 1
		if f.racks[i].rom != nil {
			w = waxShardWeight
		}
		total += w
	}
	bounds := make([]int, workers+1)
	cum, s := 0, 1
	for i := range f.racks {
		if f.racks[i].rom != nil {
			cum += waxShardWeight
		} else {
			cum++
		}
		for s < workers && cum*workers >= s*total {
			bounds[s] = i + 1
			s++
		}
	}
	for ; s <= workers; s++ {
		bounds[s] = len(f.racks)
	}
	return bounds
}
