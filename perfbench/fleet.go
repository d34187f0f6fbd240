package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// fleetWarehouse is the BenchmarkFleetMillionServers fleet: 12,500 wax
// and 12,500 bare 1U racks (1M servers) under the thermal balancer,
// running a two-day 10-minute trace with one worker per CPU, back to
// back.
type fleetWarehouse struct {
	fw *warehouse
}

// warehouse is one built million-server fleet and its trace.
type warehouse struct {
	trace  *workload.Trace
	fleet  *fleet.Fleet
	digest uint64  // digest of the first checked run; 0 until then
	newMs  float64 // wall time of fleet.New
}

// racksPerClass matches BenchmarkFleetMillionServers: 2 × 12,500 racks
// of 40 servers.
const racksPerClass = 12500

// setupReps: each set-up includes one warm-up run, so three keep the
// set-up median steady without dominating the run. Building the fleet
// alone takes about 10 ms, too little to time steadily on a shared host.
func (*fleetWarehouse) setupReps() int { return 3 }

// setup builds the fleet and runs it once: the warm-up faults in the
// fleet's memory and fixes the digest every measured run must match.
func (f *fleetWarehouse) setup(ctx context.Context, e *env) error {
	fw, err := buildWarehouse(e.seed, racksPerClass, runtime.NumCPU(), true, nil)
	if err != nil {
		return err
	}
	if _, err := fw.run(ctx, e, nil); err != nil {
		return err
	}
	f.fw = fw
	return nil
}

func (f *fleetWarehouse) measure(ctx context.Context, e *env, d time.Duration, reg *obs.Registry) (*sample, error) {
	s, err := timeOps(ctx, d, func() (float64, error) {
		sp := reg.StartSpan("fleet-warehouse")
		defer sp.End()
		return f.fw.run(ctx, e, sp)
	})
	if err != nil {
		return nil, err
	}
	s.detail = metrics{}
	s.detail.set("fleet_run_s", median(s.opsMs)/1e3, "s")
	s.detail.set("fleet_run_cpu_s", median(s.cpuMs)/1e3, "s")
	s.detail.set("fleet_runs", float64(len(s.opsMs)), "count")
	s.detail.set("fleet_workers", float64(runtime.NumCPU()), "count")
	return s, nil
}

func (f *fleetWarehouse) close() { f.fw = nil }

// buildWarehouse derives the 1U ROM, generates the two-day trace from
// seed and builds the fleet. withWax=false builds every rack bare.
// Spans, when sp is non-nil, time each layer call.
func buildWarehouse(seed int64, racks, workers int, withWax bool, sp *obs.Span) (*warehouse, error) {
	romSp := sp.Child("server.DeriveROM")
	rom, err := server.DeriveROM(server.OneU(), 0)
	romSp.End()
	if err != nil {
		return nil, err
	}
	genSp := sp.Child("workload.Generate")
	tr, err := workload.Generate(warehouseTraceOptions(seed))
	genSp.End()
	if err != nil {
		return nil, err
	}
	newSp := sp.Child("fleet.New")
	t0 := time.Now()
	f, err := fleet.New(fleet.Config{
		Classes: []fleet.ClassSpec{
			{Cfg: server.OneU(), Racks: racks, WithWax: withWax, ROM: rom},
			{Cfg: server.OneU(), Racks: racks},
		},
		Policy:  fleet.ThermalAware{},
		Workers: workers,
	})
	newMs := msSince(t0)
	newSp.End()
	if err != nil {
		return nil, err
	}
	return &warehouse{trace: tr, fleet: f, newMs: newMs}, nil
}

// warehouseTraceOptions is BenchmarkFleetMillionServers' two-day
// 10-minute trace, with the jitter seeded by the workload seed.
func warehouseTraceOptions(seed int64) workload.Options {
	return workload.Options{Days: 2, StepS: 600, Seed: seed, MeanUtil: 0.55, PeakUtil: 0.95, NoiseAmp: 0.02}
}

// run executes one two-day run, checks it and returns its wall time in
// ms. Every run of one warehouse must share the first run's digest.
func (w *warehouse) run(ctx context.Context, e *env, sp *obs.Span) (float64, error) {
	t0 := time.Now()
	runSp := sp.Child("fleet.Run")
	r, err := w.fleet.RunContext(ctx, w.trace)
	runSp.End()
	ms := msSince(t0)
	if err != nil {
		return 0, err
	}
	dg, err := checkFleetRun(r)
	if err == nil {
		switch {
		case w.digest == 0:
			w.digest = dg
		case dg != w.digest:
			err = fmt.Errorf("fleet run digest %016x differs from the first run's %016x", dg, w.digest)
		}
	}
	e.tally.check(err)
	return ms, nil
}

// checkFleetRun is the output check of one fleet run: the compiled
// kernel ran, every output is finite, the wax liquid fraction stays in
// [0,1]. It returns a digest of every output's Float64bits.
func checkFleetRun(r *fleet.Run) (uint64, error) {
	if r.Kernel != "compiled" {
		return 0, fmt.Errorf("fleet run took the %q kernel, want compiled", r.Kernel)
	}
	h := fnv.New64a()
	var buf [8]byte
	add := func(name string, vs ...float64) error {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fleet run %s[%d] = %v, want finite", name, i, v)
			}
			b := math.Float64bits(v)
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
		return nil
	}
	series := []struct {
		name string
		s    *timeseries.Series
	}{
		{"PowerW", r.PowerW}, {"CoolingLoadW", r.CoolingLoadW}, {"WaxLiquid", r.WaxLiquid},
		{"InletRiseC", r.InletRiseC}, {"ThrottledRacks", r.ThrottledRacks},
	}
	for _, s := range series {
		if s.s == nil {
			return 0, fmt.Errorf("fleet run has no %s series", s.name)
		}
		if err := add(s.name, s.s.Values...); err != nil {
			return 0, err
		}
	}
	for i, v := range r.WaxLiquid.Values {
		if v < 0 || v > 1 {
			return 0, fmt.Errorf("fleet run WaxLiquid[%d] = %v, outside [0,1]", i, v)
		}
	}
	if err := add("totals", r.AbsorbedJ, r.ReleasedJ, r.ShedServerSeconds, r.ThrottledServerSeconds); err != nil {
		return 0, err
	}
	if err := add("RackPeakCoolingW", r.RackPeakCoolingW...); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
