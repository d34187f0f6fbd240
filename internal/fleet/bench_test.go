package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// BenchmarkFleetEpochs measures the sharded epoch loop end to end (ROM
// derivation excluded) across fleet sizes and worker counts, reporting
// epoch throughput. The racks=32 entries track the historical small-fleet
// number; the 1k and 10k entries are large enough for worker scaling to
// show — on a multi-core box the compiled kernel's epochs/s should grow
// near-linearly from workers=1 to workers=numcpu. `go test
// -bench=FleetEpochs` compares scaling; 0 allocs/op is pinned separately
// by TestCompiledZeroAllocsPerEpoch.
func BenchmarkFleetEpochs(b *testing.B) {
	rom, err := server.DeriveROM(server.OneU(), 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := testTrace(b)
	for _, racks := range []int{32, 1000, 10000} {
		wax := racks * 3 / 4
		for _, workers := range []int{1, 2, 4, 0} {
			wname := fmt.Sprintf("workers=%d", workers)
			if workers == 0 {
				wname = "workers=numcpu"
			}
			b.Run(fmt.Sprintf("racks=%d/%s", racks, wname), func(b *testing.B) {
				f, err := New(Config{
					Classes: []ClassSpec{
						{Cfg: server.OneU(), Racks: wax, WithWax: true, ROM: rom},
						{Cfg: server.OneU(), Racks: racks - wax},
					},
					Policy:  ThermalAware{},
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run, err := f.Run(tr)
					if err != nil {
						b.Fatal(err)
					}
					_ = run
				}
				epochs := float64(tr.Total.Len()) * float64(b.N)
				b.ReportMetric(epochs/b.Elapsed().Seconds(), "epochs/s")
			})
		}
	}
}

// BenchmarkFleetMillionServers is the ROADMAP exit-criterion witness: a
// heterogeneous 1,000,000-server fleet — 12,500 wax racks and 12,500
// bare racks of 40 servers each, sharing two compiled classes — running
// a two-day trace at 10-minute epochs on the compiled kernel. The s/run
// metric is the wall time of one full two-day simulation, the
// "interactive at warehouse scale" number README §6 quotes.
func BenchmarkFleetMillionServers(b *testing.B) {
	rom, err := server.DeriveROM(server.OneU(), 0)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(workload.Options{
		Days: 2, StepS: 600, Seed: 3, MeanUtil: 0.55, PeakUtil: 0.95, NoiseAmp: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(Config{
		Classes: []ClassSpec{
			{Cfg: server.OneU(), Racks: 12500, WithWax: true, ROM: rom},
			{Cfg: server.OneU(), Racks: 12500},
		},
		Policy: ThermalAware{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	epochs := float64(tr.Total.Len()) * float64(b.N)
	b.ReportMetric(epochs/b.Elapsed().Seconds(), "epochs/s")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/run")
}

// BenchmarkFleetEpochsRecorded measures the flight recorder's epoch-loop
// overhead: the same fleet and trace with recording off and on. The
// recorded variant carries the full channel set (fleet-level plus 32
// racks x 3 per-rack channels) and the default alert rules; the issue's
// acceptance bar is <5% overhead between the two entries.
func BenchmarkFleetEpochsRecorded(b *testing.B) {
	rom, err := server.DeriveROM(server.OneU(), 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := testTrace(b)
	for _, recorded := range []bool{false, true} {
		name := "recorder=off"
		var rec *flightrec.Recorder
		if recorded {
			name = "recorder=on"
			rec = flightrec.New(flightrec.Config{})
		}
		b.Run(name, func(b *testing.B) {
			f, err := New(Config{
				Classes: []ClassSpec{
					{Cfg: server.OneU(), Racks: 24, WithWax: true, ROM: rom},
					{Cfg: server.OneU(), Racks: 8},
				},
				Policy:   ThermalAware{},
				Recorder: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
			epochs := float64(tr.Total.Len()) * float64(b.N)
			b.ReportMetric(epochs/b.Elapsed().Seconds(), "epochs/s")
		})
	}
}

// BenchmarkFleetEpochsObserved measures what attaching a telemetry
// registry costs: the 10k-rack BenchmarkFleetEpochs fleet run without and
// with one. Both runs execute the same kernel; the observed run adds only
// the wax phase counters and events emitted from the merge step. The
// acceptance bar is <5%, reported directly as overhead-pct.
//
// As in BenchmarkFleetEpochsAutoscale, the two variants are timed paired
// inside one benchmark body, alternating which runs first, so clock drift
// between separately-run sub-benchmarks cannot masquerade as overhead.
func BenchmarkFleetEpochsObserved(b *testing.B) {
	rom, err := server.DeriveROM(server.OneU(), 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := testTrace(b)
	const racks = 10000
	mk := func(reg *obs.Registry) *Fleet {
		f, err := New(Config{
			Classes: []ClassSpec{
				{Cfg: server.OneU(), Racks: racks * 3 / 4, WithWax: true, ROM: rom},
				{Cfg: server.OneU(), Racks: racks - racks*3/4},
			},
			Policy: ThermalAware{},
			Obs:    reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	fOff := mk(nil)
	fOn := mk(obs.New())
	run := func(f *Fleet) time.Duration {
		t0 := time.Now()
		if _, err := f.Run(tr); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	var offNs, onNs time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			offNs += run(fOff)
			onNs += run(fOn)
		} else {
			onNs += run(fOn)
			offNs += run(fOff)
		}
	}
	b.StopTimer()
	epochs := float64(tr.Total.Len()) * float64(b.N)
	b.ReportMetric(epochs/offNs.Seconds(), "unobserved-epochs/s")
	b.ReportMetric(epochs/onNs.Seconds(), "observed-epochs/s")
	b.ReportMetric(100*(onNs.Seconds()-offNs.Seconds())/offNs.Seconds(), "overhead-pct")
}
