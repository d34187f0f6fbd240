package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// rampScaler is a deterministic, allocation-free reactive controller for
// the compile-pass tests: it caps wax racks by their remaining latent
// buffer and backs the throttle trigger off with demand, so closed-loop
// control actually actuates during the pinned run.
type rampScaler struct{}

func (rampScaler) Name() string    { return "ramp" }
func (rampScaler) Reset(ScaleInfo) {}
func (rampScaler) Control(tS, dtS, demand float64, racks []RackView, ceil []float64) float64 {
	for i, r := range racks {
		if r.HasWax {
			ceil[i] = 0.6 + 0.4*r.WaxRemaining
		}
	}
	return -0.2 * demand
}

// twoDayTrace is the pinned-run workload: long enough to melt and
// refreeze the wax across two diurnal cycles.
func twoDayTrace(t testing.TB) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Options{
		Days: 2, StepS: 600, Seed: 11, MeanUtil: 0.55, PeakUtil: 0.95, NoiseAmp: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pinnedSchedule exercises every fault kind the kernel handles: chiller
// trips, fan and wax degradation (one rack, then a whole class), capacity
// loss, both sensor faults, and a demand surge.
const pinnedSchedule = `
	3h chiller-trip for 45m
	6h rack 1 fan-degrade 0.5 for 8h
	8h rack 2 wax-degrade 0.6
	9h rack 3 capacity-loss 0.7 for 6h
	11h rack 4 sensor-stuck for 2h
	13h rack 5 sensor-drop for 3h
	20h surge 1.4 for 2h
	30h class 0 wax-degrade 0.8
	33h chiller-trip for 30m
`

// runPinned runs the pinned scenario — 9 wax racks and 5 bare racks under
// the fault-aware balancer and a reactive autoscaler, faulted by
// pinnedSchedule over twoDayTrace — at the given worker count, with reg
// attached when non-nil.
func runPinned(t *testing.T, workers int, reg *obs.Registry) *Run {
	t.Helper()
	f, err := New(Config{
		Classes: []ClassSpec{
			{Cfg: server.OneU(), Racks: 9, WithWax: true, ROM: testROM(t)},
			{Cfg: server.OneU(), Racks: 5},
		},
		Policy:  FaultAware{},
		Workers: workers,
		Faults:  mustSchedule(t, pinnedSchedule),
		Scaler:  rampScaler{},
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := f.Run(twoDayTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if run.Kernel != "compiled" {
		t.Fatalf("Kernel = %q, want compiled", run.Kernel)
	}
	return run
}

// runDigest folds every physical output of a run — the series, the energy
// and ride-through totals, the per-rack peaks, and the fault and autoscale
// counts; execution metadata (Kernel, Workers) excluded — into one FNV-1a
// hash over their Float64bits.
func runDigest(run *Run) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range []*timeseries.Series{run.PowerW, run.CoolingLoadW, run.WaxLiquid,
		run.InletRiseC, run.ThrottledRacks, run.CeilMean} {
		if s == nil {
			put(0)
			continue
		}
		put(uint64(len(s.Values)))
		for _, v := range s.Values {
			put(math.Float64bits(v))
		}
	}
	for _, v := range []float64{run.AbsorbedJ, run.ReleasedJ, run.ShedServerSeconds,
		run.ThrottleOnsetS, run.ThrottledServerSeconds} {
		put(math.Float64bits(v))
	}
	put(uint64(len(run.RackPeakCoolingW)))
	for _, v := range run.RackPeakCoolingW {
		put(math.Float64bits(v))
	}
	put(uint64(run.FaultEvents))
	put(uint64(run.AutoscaleEpochs))
	return h.Sum64()
}

// pinnedRunDigest is runDigest of the pinned scenario. It was first
// captured from the per-rack pcm.State reference path the fused kernel
// replaced, which agreed with the kernel bit for bit at workers 1 and 8,
// and re-captured when the wax enthalpy inverse became closed form;
// TestPinnedScenarioDriftBound bounds how far that moved the run.
const pinnedRunDigest uint64 = 0x4d872fbbb1ecdf4b

// TestKernelPinnedDigest holds the kernel to the pinned digest over a
// faulted, autoscaled two-day run, at workers 1 and 8, with and without a
// telemetry registry: observation must not change a bit.
func TestKernelPinnedDigest(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, observed := range []bool{false, true} {
			var reg *obs.Registry
			if observed {
				reg = obs.New()
			}
			run := runPinned(t, workers, reg)
			if workers == 1 && !observed {
				if run.FaultEvents == 0 || run.AutoscaleEpochs == 0 || math.IsNaN(run.ThrottleOnsetS) {
					t.Fatalf("scenario too mild: %d fault events, %d autoscaled epochs, throttle onset %v",
						run.FaultEvents, run.AutoscaleEpochs, run.ThrottleOnsetS)
				}
			}
			if got := runDigest(run); got != pinnedRunDigest {
				t.Errorf("workers=%d observed=%v: digest %#x, want %#x", workers, observed, got, pinnedRunDigest)
			}
		}
	}
}

// TestPinnedScenarioDriftBound bounds how far the pinned scenario's
// end-to-end totals may move when the pinned digests are re-captured
// after a change to the last bits of the wax arithmetic: each is held
// within 1e-8 relative of the value the bisection-based enthalpy solver
// produced, at workers 1 and 8.
func TestPinnedScenarioDriftBound(t *testing.T) {
	for _, workers := range []int{1, 8} {
		run := runPinned(t, workers, nil)
		peakCooling, _ := run.CoolingLoadW.Peak()
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"AbsorbedJ", run.AbsorbedJ, 268092633.16774353},
			{"ReleasedJ", run.ReleasedJ, 266372556.82237387},
			{"ShedServerSeconds", run.ShedServerSeconds, 1027115.4387268021},
			{"ThrottledServerSeconds", run.ThrottledServerSeconds, 3696000},
			{"ThrottleOnsetS", run.ThrottleOnsetS, 11099.86449769779},
			{"peak CoolingLoadW", peakCooling, 145717.79190855753},
		} {
			if rel := math.Abs(c.got-c.want) / math.Abs(c.want); !(rel <= 1e-8) {
				t.Errorf("workers=%d: %s = %.17g, want %.17g within 1e-8 relative (off by %.3g)",
					workers, c.name, c.got, c.want, rel)
			}
		}
	}
}

// pinnedEventsDigest is the FNV-1a hash of the pinned scenario's pcm.*
// events (kind, name, sim time bits, value bits) at workers=1, re-captured
// with pinnedRunDigest; the transitions themselves are the ones the
// reference path recorded, so only the enthalpy bits moved.
const pinnedEventsDigest uint64 = 0xfad9a332825f1a38

// pcmEvents returns the pcm.* events of a log in record order and their
// digest.
func pcmEvents(log *obs.EventLog) ([]obs.Event, uint64) {
	h := fnv.New64a()
	var b [8]byte
	var out []obs.Event
	for _, e := range log.Events() {
		if !strings.HasPrefix(e.Kind, "pcm.") {
			continue
		}
		out = append(out, e)
		h.Write([]byte(e.Kind))
		h.Write([]byte{0})
		h.Write([]byte(e.Name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.SimTimeS))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Value))
		h.Write(b[:])
	}
	return out, h.Sum64()
}

// TestObservedPhaseEventsDeterministic pins the wax phase telemetry of
// the pinned scenario: the transition and sub-step counters the reference
// path produced, and an event sequence that is identical at every worker
// count — events are emitted from the sequential merge step in rack
// order, never from shard workers.
func TestObservedPhaseEventsDeterministic(t *testing.T) {
	var want []obs.Event
	for _, workers := range []int{1, 2, 8} {
		reg := obs.New()
		runPinned(t, workers, reg)
		snap := reg.Snapshot()
		for name, n := range map[string]int64{
			"pcm.melt_started":      26,
			"pcm.melt_completed":    19,
			"pcm.freeze_started":    19,
			"pcm.freeze_completed":  26,
			"pcm.exchange_substeps": 5585,
		} {
			if got := snap.Counters[name]; got != n {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got, n)
			}
		}
		evs, digest := pcmEvents(reg.Events())
		if len(evs) != 90 {
			t.Errorf("workers=%d: %d pcm events, want 90", workers, len(evs))
		}
		if digest != pinnedEventsDigest {
			t.Errorf("workers=%d: pcm event digest %#x, want %#x", workers, digest, pinnedEventsDigest)
		}
		if want == nil {
			want = evs
			continue
		}
		if len(evs) != len(want) {
			t.Fatalf("workers=%d: %d pcm events, workers=1 recorded %d", workers, len(evs), len(want))
		}
		for i := range evs {
			if evs[i] != want[i] {
				t.Fatalf("workers=%d: pcm event %d = %+v, workers=1 recorded %+v", workers, i, evs[i], want[i])
			}
		}
	}
}

// TestCompiledZeroAllocsPerEpoch pins the steady-state epoch path of the
// compiled kernel at zero allocations: the total allocation counts of a
// one-day and a two-day run differ only by their fixed setup cost, so the
// per-epoch difference must vanish. Measured with the thermally-aware
// policy and a reactive autoscaler in the loop, workers > 1.
func TestCompiledZeroAllocsPerEpoch(t *testing.T) {
	mkFleet := func() *Fleet {
		f, err := New(Config{
			Classes: []ClassSpec{
				{Cfg: server.OneU(), Racks: 6, WithWax: true, ROM: testROM(t)},
				{Cfg: server.OneU(), Racks: 3},
			},
			Policy:  ThermalAware{},
			Workers: 2,
			Scaler:  rampScaler{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mkTrace := func(days int) *workload.Trace {
		tr, err := workload.Generate(workload.Options{
			Days: days, StepS: 600, Seed: 7, MeanUtil: 0.5, PeakUtil: 0.95, NoiseAmp: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	f := mkFleet()
	short, long := mkTrace(1), mkTrace(2)
	run := func(tr *workload.Trace) func() {
		return func() {
			if _, err := f.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	aShort := testing.AllocsPerRun(5, run(short))
	aLong := testing.AllocsPerRun(5, run(long))
	extra := long.Total.Len() - short.Total.Len()
	if perEpoch := (aLong - aShort) / float64(extra); perEpoch >= 0.05 {
		t.Errorf("epoch steady state allocates %.3f/epoch (short run %v, long run %v over %d extra epochs), want 0",
			perEpoch, aShort, aLong, extra)
	}
}

// TestMillionServerSmoke runs a heterogeneous million-server fleet —
// 12,500 wax racks and 12,500 bare racks of 40 servers each — through a
// short trace on the compiled kernel. The full two-day interactive-scale
// witness lives in BenchmarkFleetMillionServers; this pins that the
// compile pass actually holds up at fleet scale (and leans on the
// class-level dedup: 25k racks share two compiled classes).
func TestMillionServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-server fleet in -short mode")
	}
	const racksPerClass = 12500
	f, err := New(Config{
		Classes: []ClassSpec{
			{Cfg: server.OneU(), Racks: racksPerClass, WithWax: true, ROM: testROM(t)},
			{Cfg: server.OneU(), Racks: racksPerClass},
		},
		Policy: ThermalAware{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Servers() != 1_000_000 {
		t.Fatalf("fleet has %d servers, want 1,000,000", f.Servers())
	}
	tr, err := workload.Generate(workload.Options{
		Days: 1, StepS: 7200, Seed: 3, MeanUtil: 0.6, PeakUtil: 0.9, NoiseAmp: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if run.Kernel != "compiled" {
		t.Fatalf("Kernel = %q, want compiled", run.Kernel)
	}
	for i, v := range run.PowerW.Values {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("PowerW[%d] = %v, want positive finite", i, v)
		}
	}
	if peak, _ := run.WaxLiquid.Peak(); !(peak > 0) {
		t.Errorf("wax never melted at 1M-server scale (peak liquid %v)", peak)
	}
}
