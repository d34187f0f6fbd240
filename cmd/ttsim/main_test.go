package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/timeseries"
)

func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		spec string
		want []string
	}{
		{"all", experimentOrder},
		{"fig4", []string{"fig4"}},
		{"fig12,fig11", []string{"fig11", "fig12"}}, // canonical order wins
		{"fig4,fig4, table1 ", []string{"table1", "fig4"}},
		{"check,all", experimentOrder},
	}
	for _, c := range cases {
		got, err := selectExperiments(c.spec, experimentOrder)
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("selectExperiments(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestSelectExperimentsErrors(t *testing.T) {
	_, err := selectExperiments("fig4,bogus,fig11,nope", experimentOrder)
	if err == nil {
		t.Fatal("expected error for unknown names")
	}
	for _, name := range []string{`"bogus"`, `"nope"`} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
	if _, err := selectExperiments("", experimentOrder); err == nil {
		t.Error("expected error for empty selection")
	}
	if _, err := selectExperiments(" , ", experimentOrder); err == nil {
		t.Error("expected error for blank list")
	}
}

func TestParseFleetFlags(t *testing.T) {
	spec, err := parseFleetFlags("1U=2,nowax:2U=1", "thermal, rr", 4)
	if err != nil {
		t.Fatal(err)
	}
	wantMix := []core.FleetClass{
		{Class: core.OneU, Racks: 2},
		{Class: core.TwoU, Racks: 1, NoWax: true},
	}
	if !reflect.DeepEqual(spec.Mix, wantMix) {
		t.Errorf("mix = %+v, want %+v", spec.Mix, wantMix)
	}
	// Aliases resolve to canonical names at parse time.
	if !reflect.DeepEqual(spec.Policies, []string{"thermal", "roundrobin"}) {
		t.Errorf("policies = %v", spec.Policies)
	}
	if spec.Workers != 4 {
		t.Errorf("workers = %d", spec.Workers)
	}
	// "all" (and blank) mean every built-in policy: nil lets core decide.
	for _, all := range []string{"all", "", "  "} {
		spec, err = parseFleetFlags("OCP=1", all, 0)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Policies != nil {
			t.Errorf("policies for %q = %v, want nil", all, spec.Policies)
		}
	}
	if _, err := parseFleetFlags("8U=2", "all", 0); err == nil {
		t.Error("accepted unknown class tag")
	}
	if _, err := parseFleetFlags("1U=2", "bogus", 0); err == nil {
		t.Error("accepted unknown policy name")
	}
}

func TestWriteFilePropagatesErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := writeFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// Writer failure is propagated and beats the close path.
	wantErr := io.ErrUnexpectedEOF
	if err := writeFile(path, func(io.Writer) error { return wantErr }); err != wantErr {
		t.Errorf("writeFile returned %v, want %v", err, wantErr)
	}
	// Uncreatable path fails.
	if err := writeFile(filepath.Join(dir, "missing", "out.txt"), func(io.Writer) error { return nil }); err == nil {
		t.Error("expected error creating file in missing directory")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	s, err := timeseries.FromValues(0, 60, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(dir, "probe", s, "value"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "probe.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV written")
	}
	// No-ops: empty dir or nil series.
	if err := writeCSV("", "probe", s, "value"); err != nil {
		t.Error(err)
	}
	if err := writeCSV(dir, "nil", nil, "value"); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "nil.csv")); !os.IsNotExist(err) {
		t.Error("nil series produced a file")
	}
}

func TestRunnersProduceCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs")
	}
	dir := t.TempDir()
	study := core.NewStudy()

	if err := runFig10(context.Background(), study, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig10_trace.csv")); err != nil {
		t.Error("fig10 CSV missing")
	}

	if err := runFig11(context.Background(), study, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig11_1U_baseline.csv", "fig11_1U_pcm.csv", "fig11_Open_baseline.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}

	if err := runFig12(context.Background(), study, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig12_2U_ideal.csv", "fig12_2U_nowax.csv", "fig12_2U_wax.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}

	if err := runFig7(context.Background(), study, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_1U.csv")); err != nil {
		t.Error("fig7 CSV missing")
	}
}

func TestTextOnlyRunners(t *testing.T) {
	study := core.NewStudy()
	if err := runTable1(context.Background(), study, "", io.Discard); err != nil {
		t.Error(err)
	}
	if err := runTable2(context.Background(), study, "", io.Discard); err != nil {
		t.Error(err)
	}
}

// TestChromeTraceExport runs a fast experiment with -trace.chrome and
// checks the output is loadable trace-event JSON containing the
// experiment span.
func TestChromeTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr strings.Builder
	if got := run(context.Background(), []string{"-exp", "table2", "-trace.chrome", path}, &stdout, &stderr); got != exitOK {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "chrome trace written to") {
		t.Errorf("stdout %q lacks the chrome trace notice", stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var sawSpan, sawMeta bool
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.Name == "experiment/table2" {
				sawSpan = true
			}
		case "M":
			sawMeta = true
		}
	}
	if !sawSpan || !sawMeta {
		t.Errorf("trace lacks the experiment span (%v) or track metadata (%v)", sawSpan, sawMeta)
	}
}

// TestFaultsTraceIdenticalAcrossWorkers pins the event log of an observed
// faults run byte for byte across worker counts: wax phase transitions
// are emitted from the fleet's sequential merge step in rack order, so
// shard scheduling cannot reorder them.
func TestFaultsTraceIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var traces [][]byte
	for _, workers := range []string{"1", "8"} {
		path := filepath.Join(dir, "trace-w"+workers+".jsonl")
		var stdout, stderr strings.Builder
		args := []string{"-faults", "peak", "-fleet.workers", workers, "-trace", path}
		if got := run(context.Background(), args, &stdout, &stderr); got != exitOK {
			t.Fatalf("workers=%s: run = %d\nstderr: %s", workers, got, stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"kind":"pcm.melt_start"`) {
			t.Fatalf("workers=%s: trace carries no wax phase events", workers)
		}
		traces = append(traces, b)
	}
	if string(traces[0]) != string(traces[1]) {
		t.Error("-trace output differs between -fleet.workers 1 and 8")
	}
}
