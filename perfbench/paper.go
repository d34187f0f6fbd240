package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// paperSuite is the reproduction itself: a closed loop with one client.
// Each suite boots a fresh server with a cold cache and no journal,
// lists the experiments, and POSTs each one with an empty body through
// the handler in process. Every response must match its golden byte for
// byte.
type paperSuite struct {
	goldens map[string][]byte
}

// setupReps: each set-up includes one warm-up suite, so three keep the
// set-up median steady without dominating the run.
func (*paperSuite) setupReps() int { return 3 }

func (p *paperSuite) setup(_ context.Context, e *env) error {
	g, err := readGoldens(e.root, serve.ExperimentOrder)
	if err != nil {
		return err
	}
	p.goldens = g
	_, _, err = p.suite(e, nil)
	return err
}

func (p *paperSuite) measure(ctx context.Context, e *env, d time.Duration, reg *obs.Registry) (*sample, error) {
	s, err := timeOps(ctx, d, func() (float64, error) {
		sp := reg.StartSpan("paper-suite")
		defer sp.End()
		ms, _, err := p.suite(e, sp)
		return ms, err
	})
	if err != nil {
		return nil, err
	}
	s.detail = metrics{}
	s.detail.set("suite_s", median(s.opsMs)/1e3, "s")
	s.detail.set("suite_cpu_s", median(s.cpuMs)/1e3, "s")
	s.detail.set("suites", float64(len(s.opsMs)), "count")
	return s, nil
}

func (*paperSuite) close() {}

// suite runs one full suite on a fresh server and returns its wall time
// and each experiment's request time, in ms, recording child spans of sp
// when it is non-nil. Response mismatches are failures in the tally;
// only a broken harness returns an error.
func (p *paperSuite) suite(e *env, sp *obs.Span) (float64, map[string]float64, error) {
	t0 := time.Now()
	boot := sp.Child("serve.New")
	srv, err := serve.New(serve.Config{})
	boot.End()
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	h := srv.Handler()

	listSp := sp.Child("serve.list")
	names, err := listExperiments(h)
	listSp.End()
	e.tally.check(err)
	if err != nil {
		return msSince(t0), nil, nil
	}
	perExp := make(map[string]float64, len(names))
	for _, name := range names {
		st := time.Now()
		rsp := sp.Child("core.exp." + name)
		code, body := serveInProcess(h, http.MethodPost, "/v1/experiments/"+name, nil)
		rsp.End()
		perExp[name] = msSince(st)
		e.tally.check(checkBody(name, code, body, p.goldens[name]))
	}
	return msSince(t0), perExp, nil
}

// listExperiments fetches GET /v1/experiments and checks it names the
// canonical experiment order.
func listExperiments(h http.Handler) ([]string, error) {
	code, body := serveInProcess(h, http.MethodGet, "/v1/experiments", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/experiments: status %d", code)
	}
	var list struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("GET /v1/experiments: %w", err)
	}
	if !slices.Equal(list.Experiments, serve.ExperimentOrder) {
		return nil, fmt.Errorf("GET /v1/experiments lists %v, want %v", list.Experiments, serve.ExperimentOrder)
	}
	return list.Experiments, nil
}

// serveInProcess sends one request through h without a network.
func serveInProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// checkBody is the output check of one served response against its
// golden bytes.
func checkBody(name string, code int, got, want []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", name, code, got)
	}
	if want == nil {
		return fmt.Errorf("%s: no golden to check against", name)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("%s: response differs from its golden at byte %d (got %d bytes, golden %d)",
			name, i, len(got), len(want))
	}
	return nil
}

// readGoldens loads internal/serve/testdata/golden/<name>.json for each
// name, at run time, so deliberate golden regenerations carry through.
func readGoldens(root string, names []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(root, "internal", "serve", "testdata", "golden", n+".json"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		out[n] = b
	}
	return out, nil
}
