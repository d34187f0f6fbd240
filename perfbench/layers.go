package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/persist"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/workload"
)

// Limits of the serve capacity search: the highest miss rate whose p99
// stays within missP99LimitMs without a growing backlog.
const missP99LimitMs = 250.0

var capacityRates = []float64{5, 10, 15, 20, 30, 40}

// probeLayers measures every layer from outside by timing the
// benchmark's own calls into each package's public functions. Nothing
// here attaches a registry to a Study or a fleet; reg only collects the
// benchmark's spans.
func probeLayers(ctx context.Context, e *env, reg *obs.Registry) (metrics, error) {
	m := metrics{}
	sp := reg.StartSpan("layers")
	defer sp.End()
	for _, probe := range []func(context.Context, *env, *obs.Span, metrics) error{
		probePCM, probeFleet, probeSuite, probeThermal, probeScenario, probeServe,
	} {
		if err := probe(ctx, e, sp, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// perCallNs times fn (which makes calls calls) in reps batches and
// returns the median ns per call.
func perCallNs(reps, calls int, fn func()) float64 {
	var per []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(per)
}

// probePCM replays the wake-air sequence the fleet-warehouse trace
// induces through the 1U ROM (the fleet-mean utilization of each epoch)
// through FlatExchangeWithAir, then FlatSolve over the enthalpies it
// produced.
func probePCM(_ context.Context, e *env, sp *obs.Span, m metrics) error {
	rom, err := server.DeriveROM(server.OneU(), 0)
	if err != nil {
		return err
	}
	tr, err := workload.Generate(warehouseTraceOptions(e.seed))
	if err != nil {
		return err
	}
	st, err := rom.NewWaxState()
	if err != nil {
		return err
	}
	h0, refC, mass, shell := st.Flat()
	air := make([]float64, tr.Total.Len())
	for i, u := range tr.Total.Values {
		air[i] = rom.WakeAirC(u, 1)
	}
	dt := tr.Total.Step
	enth := make([]float64, len(air))
	passes := 20
	if e.small {
		passes = 2
	}
	ex := sp.Child("pcm.FlatExchangeWithAir")
	m.set("pcm.exchange_ns", perCallNs(5, passes*len(air), func() {
		for p := 0; p < passes; p++ {
			h := h0
			for i, a := range air {
				pcm.FlatExchangeWithAir(rom.Enclosure, refC, mass, shell, &h, a, rom.HA, dt)
				enth[i] = h
			}
		}
	}), "ns")
	ex.End()
	var bad error
	solve := sp.Child("pcm.FlatSolve")
	m.set("pcm.solve_ns", perCallNs(5, passes*len(enth), func() {
		for p := 0; p < passes; p++ {
			for _, h := range enth {
				t, lf := pcm.FlatSolve(rom.Enclosure, refC, mass, shell, h)
				if math.IsNaN(t) || math.IsInf(t, 0) || lf < 0 || lf > 1 {
					bad = fmt.Errorf("pcm replay: FlatSolve gave T=%v liquid=%v", t, lf)
				}
			}
		}
	}), "ns")
	solve.End()
	e.tally.check(bad)
	return nil
}

// probeFleet runs the warehouse fleet at one worker and at one worker per
// CPU (whose digests must agree), and with every rack bare.
func probeFleet(ctx context.Context, e *env, sp *obs.Span, m metrics) error {
	racks := racksPerClass
	if e.small {
		racks = 250
	}
	nproc := runtime.NumCPU()
	var newMs []float64
	runOnce := func(workers int, withWax bool) (*warehouse, float64, error) {
		fsp := sp.Child(fmt.Sprintf("fleet workers=%d wax=%v", workers, withWax))
		defer fsp.End()
		w, err := buildWarehouse(e.seed, racks, workers, withWax, fsp)
		if err != nil {
			return nil, 0, err
		}
		newMs = append(newMs, w.newMs)
		ms, err := w.run(ctx, e, fsp)
		return w, ms, err
	}
	w1, ms1, err := runOnce(1, true)
	if err != nil {
		return err
	}
	wN, msN, err := runOnce(nproc, true)
	if err != nil {
		return err
	}
	var mismatch error
	if w1.digest != wN.digest {
		mismatch = fmt.Errorf("fleet digest at workers=1 %016x differs from workers=%d %016x", w1.digest, nproc, wN.digest)
	}
	e.tally.check(mismatch)
	_, msBare, err := runOnce(nproc, false)
	if err != nil {
		return err
	}
	rackEpochs := float64(2*racks) * float64(wN.trace.Total.Len())
	m.set("fleet.new_ms", median(newMs), "ms")
	m.set("fleet.rack_epochs", rackEpochs, "count")
	m.set("fleet.ns_per_rack_epoch", msN*1e6/rackEpochs, "ns")
	m.set("fleet.run_s_w1", ms1/1e3, "s")
	m.set("fleet.run_s_wn", msN/1e3, "s")
	m.set("fleet.parallel_eff", ms1/(float64(nproc)*msN), "ratio")
	m.set("fleet.wax_share", 1-msBare/msN, "ratio")
	return nil
}

// probeSuite runs one paper suite on a fresh server and times each
// experiment's request.
func probeSuite(_ context.Context, e *env, sp *obs.Span, m metrics) error {
	p := &paperSuite{}
	g, err := readGoldens(e.root, serve.ExperimentOrder)
	if err != nil {
		return err
	}
	p.goldens = g
	suiteSp := sp.Child("paper-suite")
	_, perExp, err := p.suite(e, suiteSp)
	suiteSp.End()
	if err != nil {
		return err
	}
	for _, n := range serve.ExperimentOrder {
		m.set("core.exp."+n+"_ms", perExp[n], "ms")
	}
	return nil
}

// probeThermal times the single-server layers: a 1U wax thermal model
// step, a 1U wax fluid cooling-load run, ROM derivation for the three
// server classes, and trace generation.
func probeThermal(_ context.Context, e *env, sp *obs.Span, m metrics) error {
	b, err := server.BuildModel(server.OneU(), server.BuildOptions{WithWax: true})
	if err != nil {
		return err
	}
	steps := 20000
	if e.small {
		steps = 1000
	}
	tsp := sp.Child("thermal.Model.Step")
	m.set("thermal.step_ns", perCallNs(5, steps, func() {
		for i := 0; i < steps; i++ {
			b.Model.Step(1)
		}
	}), "ns")
	tsp.End()

	cl, err := dcsim.NewCluster(server.OneU(), 0)
	if err != nil {
		return err
	}
	tr := workload.GoogleTwoDay()
	var runErr error
	dsp := sp.Child("dcsim.RunCoolingLoad")
	m.set("dcsim.cooling_load_ms", perCallNs(5, 1, func() {
		if _, err := cl.RunCoolingLoad(tr, true); err != nil {
			runErr = err
		}
	})/1e6, "ms")
	dsp.End()
	e.tally.check(runErr)

	rsp := sp.Child("server.DeriveROM")
	m.set("server.derive_rom_ms", perCallNs(3, 1, func() {
		for _, cfg := range []*server.Config{server.OneU(), server.TwoU(), server.OpenCompute()} {
			if _, err := server.DeriveROM(cfg, 0); err != nil {
				runErr = err
			}
		}
	})/1e6, "ms")
	rsp.End()
	e.tally.check(runErr)

	gsp := sp.Child("workload.Generate")
	m.set("workload.generate_ms", perCallNs(5, 1, func() {
		if _, err := workload.Generate(warehouseTraceOptions(e.seed)); err != nil {
			runErr = err
		}
	})/1e6, "ms")
	gsp.End()
	e.tally.check(runErr)
	return nil
}

// probeScenario times parsing the miss rotation's re-seeded sources and
// running each one directly on an unobserved Study.
func probeScenario(ctx context.Context, e *env, sp *obs.Span, m metrics) error {
	var sources []string
	for _, n := range scenario.Names() {
		if n == slowCorpusEntry {
			continue
		}
		src, err := scenario.NamedSource(n)
		if err != nil {
			return err
		}
		source, err := reseed(string(src), e.seed, len(sources))
		if err != nil {
			return err
		}
		sources = append(sources, source)
	}
	reps := 50
	if e.small {
		reps = 2
	}
	var parseErr error
	psp := sp.Child("scenario.ParseString")
	m.set("scenario.parse_us", perCallNs(5, reps*len(sources), func() {
		for r := 0; r < reps; r++ {
			for _, src := range sources {
				if _, err := scenario.ParseString(src); err != nil {
					parseErr = err
				}
			}
		}
	})/1e3, "us")
	psp.End()
	e.tally.check(parseErr)

	study := core.NewStudy()
	var direct []float64
	for _, src := range sources {
		spec, err := scenario.ParseString(src)
		if err != nil {
			return err
		}
		dsp := sp.Child("core.RunScenarioStudy")
		t0 := time.Now()
		_, err = study.RunScenarioStudy(ctx, core.ScenarioSpec{Scenario: spec})
		direct = append(direct, msSince(t0))
		dsp.End()
		e.tally.check(err)
	}
	m.set("scenario.direct_ms", median(direct), "ms")
	return nil
}

// probeServe runs a short serve-mixed window on a fresh server process
// and searches its miss capacity, then times the hit handler in process,
// admission and a journal append.
func probeServe(ctx context.Context, e *env, sp *obs.Span, m metrics) error {
	ssp := sp.Child("serve-mixed")
	defer ssp.End()
	ms, err := startMixedServer(e)
	if err != nil {
		return err
	}
	err = probeServerProcess(ctx, e, ms, ssp, m)
	ms.close()
	if err != nil {
		return err
	}
	_, stats, err := persist.ReadAll(ms.journal)
	if err == nil && stats.Skipped > 0 {
		err = fmt.Errorf("serve journal replay skipped %d records", stats.Skipped)
	}
	e.tally.check(err)
	m.set("serve.journal_appends", float64(stats.Records), "count")

	// The hit path in process: no socket, no client.
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	target := ms.hot[0]
	code, out := serveInProcess(h, "POST", target.path, target.body)
	e.tally.check(checkBody(target.name, code, out, target.golden))
	hsp := ssp.Child("serve.Handler hit")
	m.set("serve.hit_handler_us", perCallNs(5, 200, func() {
		for i := 0; i < 200; i++ {
			serveInProcess(h, "POST", target.path, target.body)
		}
	})/1e3, "us")
	hsp.End()

	ac := admit.New(admit.Config{GlobalRate: 1e9, ClientRate: 1e9})
	asp := ssp.Child("admit.Admit")
	m.set("admit.admit_ns", perCallNs(5, 10000, func() {
		for i := 0; i < 10000; i++ {
			ac.Admit("perfbench")
		}
	}), "ns")
	asp.End()

	j, _, _, err := persist.Open(filepath.Join(e.tmp, "append.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	body := ms.hot[len(ms.hot)-1].golden // a scenario response: miss-sized
	var appendErr error
	psp := ssp.Child("persist.Journal.Append")
	n := 0
	m.set("persist.append_ms", perCallNs(20, 1, func() {
		n++
		if err := j.Append(fmt.Sprintf("probe-%d", n), body); err != nil {
			appendErr = err
		}
	})/1e6, "ms")
	psp.End()
	e.tally.check(appendErr)
	return nil
}

// probeServerProcess offers serve-mixed traffic to ms for a short window,
// then steps a miss-only load up through capacityRates until a step fails
// to sustain it.
func probeServerProcess(ctx context.Context, e *env, ms *mixedServer, sp *obs.Span, m metrics) error {
	window, step := 4*time.Second, 2*time.Second
	if e.small {
		window, step = time.Second, 500*time.Millisecond
	}
	lr, err := ms.openLoop(ctx, e, window, hitRate, missRate, nil)
	if err != nil {
		return err
	}
	m.set("serve.requests", float64(lr.requests), "count")
	m.set("serve.hit_ratio", float64(lr.hits)/float64(lr.requests), "ratio")
	m.set("serve.hit_ratio_base", float64(lr.requests), "count")
	m.set("serve.shed", float64(lr.shed), "count")
	m.set("serve.gen_late_p99_ms", quantile(lr.lateMs, 0.99), "ms")
	m.set("serve.miss_p50_ms", quantile(lr.missMs, 0.5), "ms")
	if d, ok := m["scenario.direct_ms"]; ok {
		m.set("serve.miss_overhead_ms", quantile(lr.missMs, 0.5)-d.Value, "ms")
	}

	csp := sp.Child("capacity search")
	defer csp.End()
	capacity := 0.0
	for _, rate := range capacityRates {
		lr, err := ms.openLoop(ctx, e, step, 0, rate, nil)
		if err != nil {
			return err
		}
		if !sustains(lr.missMs) {
			break
		}
		capacity = rate
	}
	m.set("serve.capacity_rps", capacity, "1/s")
	return nil
}

// sustains reports whether a capacity step met the latency limit without
// a growing backlog: p99 within missP99LimitMs, and the last third of the
// window's misses no slower on average than the first third plus 50%.
func sustains(missMs []float64) bool {
	if len(missMs) < 3 {
		return len(missMs) > 0 && quantile(missMs, 0.99) <= missP99LimitMs
	}
	third := len(missMs) / 3
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	first, last := mean(missMs[:third]), mean(missMs[len(missMs)-third:])
	return quantile(missMs, 0.99) <= missP99LimitMs && last <= 1.5*first
}
