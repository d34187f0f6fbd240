package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// env is the state shared by a run's workload and probes.
type env struct {
	opts
	tmp       string // scratch directory inside --out, removed at exit
	tally     *tally
	serverPID int // the live server process of serve-mixed, 0 for none
}

// peakRSS is the peak resident set size of the benchmark process plus
// its live server process, in MB.
func (e *env) peakRSS() float64 {
	mb := peakRSSMB("self")
	if e.serverPID != 0 {
		mb += peakRSSMB(strconv.Itoa(e.serverPID))
	}
	return mb
}

// tally counts attempted and failed operations. A failure is an error, a
// non-200 response, a failed output check or a shed request.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// maxReasons bounds the failure reasons kept for the run record.
const maxReasons = 20

// check records one attempted operation, failed when err is non-nil.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

func (t *tally) counts() (attempted, failed int, reasons []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.reasons...)
}

// sample is one measurement window of a workload.
type sample struct {
	opsMs  []float64 // wall time of each measured operation
	cpuMs  []float64 // CPU time of each measured operation
	calMs  []float64 // CPU time of each calibration loop run between operations
	detail metrics   // the workload's own named metrics
}

// refCPUMs is the median CPU time per operation at the reference speed.
func (s *sample) refCPUMs() float64 { return refMedian(s.cpuMs, s.calMs) }

// runner is one benchmark workload. setup is called setupReps times,
// each after close has released the previous state; measure runs the
// workload for d against the last state, recording spans into reg when
// it is non-nil. close must be safe to call with no state.
type runner interface {
	setupReps() int
	setup(ctx context.Context, e *env) error
	measure(ctx context.Context, e *env, d time.Duration, reg *obs.Registry) (*sample, error)
	close()
}

func newRunner(name string) (runner, error) {
	switch name {
	case "paper-suite":
		return &paperSuite{}, nil
	case "fleet-warehouse":
		return &fleetWarehouse{}, nil
	case "serve-mixed":
		return &serveMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// The host's speed drifts by tens of percent over minutes (shared
// physical cores, clock changes), and CPU time moves with it. Every CPU
// time the benchmark reports is therefore divided by the CPU time of a
// fixed calibration loop timed next to it and expressed at the
// reference speed, at which the loop takes calNominalMs.
const (
	calIters     = 40_000_000
	calNominalMs = 100.0
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// calibrate runs the calibration loop, a chain of dependent
// floating-point updates that touches no memory, on a locked thread and
// returns the thread's CPU time for it in ms, so that work on other
// threads (the collector, a server's goroutines) is not counted.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var r0, r1 syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &r0); err != nil {
		return math.NaN()
	}
	x := 1.0
	for i := 0; i < calIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	if err := syscall.Getrusage(rusageThread, &r1); err != nil || x == 0 {
		return math.NaN()
	}
	return float64(r1.Utime.Nano()+r1.Stime.Nano()-r0.Utime.Nano()-r0.Stime.Nano()) / 1e6
}

// refMedian returns the median of the CPU times cpu at the reference
// speed, given the calibration loop's CPU times cal measured between
// them. Medians over the whole window track the host's drift without
// adding each short loop's own noise to every operation.
func refMedian(cpu, cal []float64) float64 {
	return median(cpu) * calNominalMs / median(cal)
}

// timeOps runs op back to back for d, and at least once, calibrating
// before the first run and after each. It returns each run's wall time
// as op reports it and its CPU time, and every calibration. Each run's
// CPU time includes collecting its garbage, and the set-up's garbage is
// collected and its memory returned to the OS before the first: every
// run then starts from the same heap, so the peak RSS does not depend on
// where the collector's and the scavenger's own cycles fall.
func timeOps(ctx context.Context, d time.Duration, op func() (float64, error)) (*sample, error) {
	debug.FreeOSMemory()
	s := &sample{calMs: []float64{calibrate()}}
	deadline := time.Now().Add(d)
	for len(s.opsMs) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c0 := cpuMs()
		ms, err := op()
		runtime.GC()
		cpu := cpuMs() - c0
		if err != nil {
			return nil, err
		}
		s.opsMs = append(s.opsMs, ms)
		s.cpuMs = append(s.cpuMs, cpu)
		s.calMs = append(s.calMs, calibrate())
	}
	return s, nil
}

// cpuMs returns the CPU time (user plus system) the benchmark process
// has used, in ms. Time the hypervisor steals from the host is not
// counted, so it varies less than wall time on a shared machine.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// procCPUMs returns the CPU time (user plus system) another process has
// used, in ms, from /proc/<pid>/stat (clock ticks of 10 ms).
func procCPUMs(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// Fields after the parenthesised command name start at field 3.
	_, rest, _ := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return math.NaN()
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return (utime + stime) * 10
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// stamp names the hardware, toolchain and source a record was measured
// with.
type stamp struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Time         string `json:"time"`
}

func newStamp(root string) stamp {
	return stamp{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(root),
		SourceSHA256: sourceDigest(root),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checkout's git commit, or "none" outside a git
// repository (the source digest still identifies the code).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources, module files and serve
// goldens, skipping dot-directories (build caches, run records, .git).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.Contains(path, "golden") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
