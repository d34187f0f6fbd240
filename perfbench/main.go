// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of seconds, checks every output it
// produces, and prints one JSON result line:
//
//	go run . --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing the
// benchmark's own calls into each package, and the run writes its spans
// as a Chrome trace-event file. The program under test receives only
// inputs generated from --seed. See README.md for the workloads, the
// metric tables and how the layer metrics relate to the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// workloadNames lists the workloads in the order README.md documents them.
var workloadNames = []string{"paper-suite", "fleet-warehouse", "serve-mixed"}

// opts is one benchmark invocation.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout: goldens and source stamp
	out      string // directory for run records and traces
	small    bool   // shrink the per-layer probes (self-test only)
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if journal := os.Getenv(serveChildEnv); journal != "" {
		if err := runServeChild(journal); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout the goldens are read from")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for run records and traces")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, rec, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(o, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(o, res, rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// record is the stamped run record written under --out: the printed
// result plus the workload's own named metrics, the failure reasons and
// the hardware and source the numbers were measured on.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Stamp     stamp     `json:"stamp"`
	Result    result    `json:"result"`
	Detail    metrics   `json:"detail"`
	SetupCPU  []float64 `json:"setup_runs_cpu_s"`
	SetupWall []float64 `json:"setup_runs_wall_s"`
	SetupCal  []float64 `json:"setup_runs_calibration_ms"`
	Failures  []string  `json:"failures,omitempty"`
	TraceOut  string    `json:"trace_file,omitempty"`
}

// run executes one invocation and returns the printed result and the
// full record.
func run(ctx context.Context, o opts) (result, record, error) {
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	w, err := newRunner(o.workload)
	if err != nil {
		return result{}, rec, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, rec, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return result{}, rec, err
	}
	defer os.RemoveAll(tmp)
	e := &env{opts: o, tmp: tmp, tally: &tally{}}
	defer w.close()

	rec.SetupWall, rec.SetupCPU, rec.SetupCal, err = runSetups(ctx, e, w)
	if err != nil {
		return result{}, rec, err
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2
	}
	plain, err := w.measure(ctx, e, measured, nil)
	if err != nil {
		return result{}, rec, err
	}
	rec.Detail = plain.detail
	res := result{Metrics: metrics{}}
	res.Metrics.set("setup_s", refMedian(rec.SetupCPU, rec.SetupCal), "s")
	res.Metrics.set("peak_rss_mb", e.peakRSS(), "MB")
	res.Metrics.set("op_cpu_ms", plain.refCPUMs(), "ms")
	for n, m := range res.Metrics {
		rec.Detail[n] = m
	}
	rec.Detail.set("setup_wall_s", median(rec.SetupWall), "s")
	rec.Detail.set("setup_raw_cpu_s", median(rec.SetupCPU), "s")
	rec.Detail.set("op_raw_cpu_ms", median(plain.cpuMs), "ms")
	rec.Detail.set("calibration_ms", median(plain.calMs), "ms")
	if o.trace {
		reg := obs.New()
		reg.EnableSpanTrace(1 << 18)
		traced, err := w.measure(ctx, e, measured, reg)
		if err != nil {
			return result{}, rec, err
		}
		layers, err := probeLayers(ctx, e, reg)
		if err != nil {
			return result{}, rec, err
		}
		layers.set("trace_overhead_pct", 100*(traced.refCPUMs()/plain.refCPUMs()-1), "%")
		res.Metrics = layers
		rec.TraceOut = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := writeChromeTrace(reg, rec.TraceOut); err != nil {
			return result{}, rec, err
		}
	}
	res.Attempted, res.Failed, rec.Failures = e.tally.counts()
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return result{}, rec, errors.New("no operation was attempted")
	}
	rec.Detail.set("fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	rec.Stamp = newStamp(o.root)
	rec.Result = res
	return res, rec, nil
}

// runSetups sets the workload up setupReps times, closing the previous
// state before each, and returns each set-up's wall time and CPU time
// (the benchmark process plus the server process it started), in s, and
// the calibrations run before the first and after each, in ms.
func runSetups(ctx context.Context, e *env, w runner) (wallS, cpuS, calMs []float64, err error) {
	calMs = append(calMs, calibrate())
	for i := 0; i < w.setupReps(); i++ {
		// Release and collect the previous state and return its memory to
		// the OS first, so each set-up's time and the peak RSS do not
		// depend on when the collector and the scavenger run.
		w.close()
		e.serverPID = 0
		debug.FreeOSMemory()
		t0, c0 := time.Now(), cpuMs()
		if err := w.setup(ctx, e); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		cpu := cpuMs() - c0
		if e.serverPID != 0 {
			cpu += procCPUMs(e.serverPID)
		}
		wallS = append(wallS, time.Since(t0).Seconds())
		cpuS = append(cpuS, cpu/1e3)
		calMs = append(calMs, calibrate())
	}
	return wallS, cpuS, calMs, nil
}

// writeChromeTrace writes the benchmark's spans in the Chrome trace-event
// format.
func writeChromeTrace(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// writeRecord stores the stamped run record under --out.
func writeRecord(o opts, rec record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}

// printSummary prints every metric by name with its unit on standard
// error, so the last line of standard output stays the JSON result.
func printSummary(o opts, res result, rec record) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v  (%s, GOMAXPROCS=%d, nproc=%d, %s, commit %s)\n",
		o.workload, o.seed, o.seconds, o.trace, rec.Stamp.CPUModel, rec.Stamp.GOMAXPROCS,
		rec.Stamp.NProc, rec.Stamp.GoVersion, rec.Stamp.Commit)
	for _, part := range []struct {
		title string
		m     metrics
	}{{"workload", rec.Detail}, {"result", res.Metrics}} {
		names := make([]string, 0, len(part.m))
		for n := range part.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-8s %-32s %14.6g %s\n", part.title, n, part.m[n].Value, part.m[n].Unit)
		}
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "  failure:", f)
	}
	if rec.TraceOut != "" {
		fmt.Fprintln(os.Stderr, "  trace:", rec.TraceOut)
	}
}
