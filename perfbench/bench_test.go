package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The self-test of the benchmark: short runs of every workload must print
// exactly the metrics BENCHMARK.json declares with no failed check, and a
// golden with one flipped byte must drive fail_frac above zero.
//
//	cd perfbench && go test .

func TestMain(m *testing.M) {
	// The test binary doubles as the serve-mixed server process.
	if journal := os.Getenv(serveChildEnv); journal != "" {
		if err := runServeChild(journal); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// checkNames fails unless got carries exactly the declared names and units.
func checkNames(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for n, unit := range want {
		m, ok := got[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", n, m.Unit, unit)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("missing metrics %v, undeclared metrics %v", missing, extra)
	}
}

func shortOpts(t *testing.T, workload string) opts {
	return opts{workload: workload, seed: 5, seconds: 1, root: "..", out: t.TempDir(), small: true}
}

func TestShortRunsPrintDeclaredMetrics(t *testing.T) {
	endToEnd, _, workloads := declared(t)
	if len(workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", workloads, workloadNames)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, rec, err := run(context.Background(), shortOpts(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, res.Metrics, endToEnd)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, rec.Failures)
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %v, want positive", n, m.Value)
				}
			}
		})
	}
}

func TestTracedRunPrintsLayerMetricsAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes several seconds")
	}
	_, perLayer, _ := declared(t)
	o := shortOpts(t, "paper-suite")
	o.trace = true
	res, rec, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res.Metrics, perLayer)
	if res.Failed != 0 {
		t.Errorf("traced run failed %d checks: %v", res.Failed, rec.Failures)
	}
	b, err := os.ReadFile(rec.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	spans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace holds no spans")
	}
}

func TestPerturbedGoldenDrivesFailFrac(t *testing.T) {
	o := shortOpts(t, "paper-suite")
	e := &env{opts: o, tmp: o.out, tally: &tally{}}
	p := &paperSuite{}
	if err := p.setup(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if _, failed, reasons := e.tally.counts(); failed != 0 {
		t.Fatalf("unperturbed suite failed: %v", reasons)
	}
	perturbed := append([]byte(nil), p.goldens["table2"]...)
	perturbed[len(perturbed)/2] ^= 1
	p.goldens["table2"] = perturbed
	if _, err := p.measure(context.Background(), e, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	attempted, failed, _ := e.tally.counts()
	if frac := float64(failed) / float64(attempted); !(frac > 0) {
		t.Errorf("fail_frac = %v after flipping a golden byte, want > 0", frac)
	}
}
