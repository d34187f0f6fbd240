package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Offered load of serve-mixed: arrivals at these mean rates. At ≈60 ms
// per miss this keeps a 2-core host about half busy.
const (
	hitRate  = 20.0 // cache-hit requests per second
	missRate = 6.0  // cache-miss requests per second
)

// cheapExperiments are the default experiments warmed as hit targets:
// every one except the four slow studies (waxsweep, fleet, faults,
// autoscale), which would only lengthen set-up.
var cheapExperiments = []string{
	"table1", "fig4", "fig7", "fig10", "fig11", "fig12", "table2", "tco", "extensions", "scenario", "check",
}

// slowCorpusEntry is left out of both the hits and the misses: it
// simulates a year, so even a hit on it spends ≈55 ms building its trace
// and stalls the hits queued behind it.
const slowCorpusEntry = "wax-aging-year"

// serveMixed is what ttsimd clients see: an open loop over loopback HTTP
// with two connections, one carrying cache hits and one carrying misses.
type serveMixed struct {
	cur *mixedServer
}

// setupReps: a set-up boots a server and warms 24 entries (≈1.3 s), so
// three bound the run length while giving a median.
func (*serveMixed) setupReps() int { return 3 }

func (s *serveMixed) setup(_ context.Context, e *env) error {
	ms, err := startMixedServer(e)
	if err != nil {
		return err
	}
	s.cur = ms
	e.serverPID = ms.child.Process.Pid
	return nil
}

func (s *serveMixed) measure(ctx context.Context, e *env, d time.Duration, reg *obs.Registry) (*sample, error) {
	cal0 := calibrate()
	c0 := procCPUMs(e.serverPID)
	lr, err := s.cur.openLoop(ctx, e, d, hitRate, missRate, reg)
	if err != nil {
		return nil, err
	}
	perRequest := (procCPUMs(e.serverPID) - c0) / float64(lr.requests)
	smp := &sample{detail: metrics{}, cpuMs: []float64{perRequest}, calMs: []float64{cal0, calibrate()}}
	smp.opsMs = append(append(smp.opsMs, lr.hitMs...), lr.missMs...)
	lr.report(smp.detail)
	smp.detail.set("server_cpu_per_request_ms", perRequest, "ms")
	return smp, nil
}

func (s *serveMixed) close() {
	if s.cur != nil {
		s.cur.close()
		s.cur = nil
	}
}

// mixedServer is one ttsimd-shaped server process on a loopback
// listener plus the benchmark's two client connections and its warmed
// hit targets. The server runs in a child process so that its
// simulations cannot starve the load generator of CPU time.
type mixedServer struct {
	child    *exec.Cmd
	stdin    io.WriteCloser // closing it asks the child to drain and exit
	stdout   *bufio.Reader
	base     string
	journal  string
	hot      []hotTarget
	misses   []missSource
	nextHot  int
	nextMiss int // misses sent so far; each gets a fresh seed
	hitC     *http.Client
	missC    *http.Client
}

// hotTarget is one warmed cache entry and the golden its hits must match.
type hotTarget struct {
	name   string
	path   string
	body   []byte
	golden []byte
}

// missSource is one corpus entry's source, re-seeded per miss.
type missSource struct {
	name   string
	source string
}

// serveChildEnv, when set in the environment, turns the benchmark binary
// into the serve-mixed server process; its value is the journal path.
const serveChildEnv = "PERFBENCH_SERVE_JOURNAL"

// runServeChild is the server process: ttsimd's default shape (2 run
// slots, queue 8, 64 cache entries) with admission quotas well above the
// offered load and a cache journal at journal. It prints its listen
// address and serves until standard input closes, then drains.
func runServeChild(journal string) error {
	srv, err := serve.New(serve.Config{
		Admission:   admit.Config{GlobalRate: 10000, ClientRate: 10000},
		PersistPath: journal,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	fmt.Println(ln.Addr().String())
	io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain(ctx)
	hs.Shutdown(ctx)
	<-served
	return srv.Close()
}

// startMixedServer starts the server process with a cache journal in a
// temp dir, then warms the hit targets.
func startMixedServer(e *env) (*mixedServer, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ms := &mixedServer{journal: filepath.Join(dir, "cache.journal"), hitC: oneConnClient(), missC: oneConnClient()}
	ms.child = exec.Command(self)
	ms.child.Env = append(os.Environ(), serveChildEnv+"="+ms.journal)
	ms.child.Stderr = os.Stderr
	if ms.stdin, err = ms.child.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := ms.child.StdoutPipe()
	if err != nil {
		return nil, err
	}
	ms.stdout = bufio.NewReader(out)
	if err := ms.child.Start(); err != nil {
		return nil, fmt.Errorf("start server process: %w", err)
	}
	addr, err := ms.stdout.ReadString('\n')
	if err != nil {
		ms.close()
		return nil, fmt.Errorf("server process gave no address: %w", err)
	}
	ms.base = "http://" + strings.TrimSpace(addr)
	if err := ms.prepare(e); err != nil {
		ms.close()
		return nil, err
	}
	return ms, nil
}

// oneConnClient is an HTTP client pinned to one keep-alive connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// prepare loads the hit targets' goldens, warms each one (a checked miss)
// and parses the miss rotation.
func (ms *mixedServer) prepare(e *env) error {
	goldens, err := readGoldens(e.root, cheapExperiments)
	if err != nil {
		return err
	}
	for _, n := range cheapExperiments {
		ms.hot = append(ms.hot, hotTarget{name: n, path: "/v1/experiments/" + n, golden: goldens[n]})
	}
	for _, n := range scenario.Names() {
		if n == slowCorpusEntry {
			continue
		}
		g, err := readGoldens(e.root, []string{"scenario-" + n})
		if err != nil {
			return err
		}
		body, _ := json.Marshal(map[string]any{"scenario": map[string]string{"name": n}})
		ms.hot = append(ms.hot, hotTarget{name: "scenario-" + n, path: "/v1/experiments/scenario", body: body, golden: g["scenario-"+n]})
		src, err := scenario.NamedSource(n)
		if err != nil {
			return err
		}
		ms.misses = append(ms.misses, missSource{name: n, source: string(src)})
	}
	for _, h := range ms.hot {
		resp, err := post(ms.hitC, ms.base+h.path, h.body)
		if err == nil {
			err = checkBody(h.name, resp.code, resp.body, h.golden)
		}
		e.tally.check(err)
	}
	return nil
}

// missBody re-seeds the next corpus entry of the rotation from the
// workload seed and returns its inline-source request body.
func (ms *mixedServer) missBody(seed int64) (string, []byte, error) {
	i := ms.nextMiss
	ms.nextMiss++
	src := ms.misses[i%len(ms.misses)]
	source, err := reseed(src.source, seed, i)
	if err != nil {
		return "", nil, err
	}
	body, err := json.Marshal(map[string]any{"scenario": map[string]string{"source": source}})
	return src.name, body, err
}

// reseed parses a scenario source, sets miss i's seed and returns the
// canonical text.
func reseed(source string, seed int64, i int) (string, error) {
	spec, err := scenario.ParseString(source)
	if err != nil {
		return "", err
	}
	spec.Gen.Seed = missSeed(seed, i)
	return spec.String(), nil
}

// missSeed derives miss i's scenario seed from the workload seed
// (splitmix64), so every miss of a run is a distinct run key.
func missSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z^(z>>31))%1_000_000_000) + 1
}

// close stops the server process and waits for it, killing it if it
// has not exited within 30 s of being asked to.
func (ms *mixedServer) close() {
	for _, c := range []*http.Client{ms.hitC, ms.missC} {
		c.CloseIdleConnections()
	}
	ms.stdin.Close()
	kill := time.AfterFunc(30*time.Second, func() { ms.child.Process.Kill() })
	defer kill.Stop()
	ms.child.Wait()
}

// response is one completed HTTP exchange.
type response struct {
	code  int
	cache string
	body  []byte
}

func post(c *http.Client, url string, body []byte) (response, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// loopResult is the outcome of one open-loop window.
type loopResult struct {
	hitMs, missMs       []float64 // latency from each request's scheduled send
	hitSvcMs, missSvcMs []float64 // latency from each request's actual send
	lateMs              []float64 // how late the generator fired each request
	requests            int
	hits                int // responses served from the cache
	shed                int // 429 and 503 responses
	hitRate             float64
	missRate            float64
}

func (lr *loopResult) report(m metrics) {
	m.set("hit_p50_ms", quantile(lr.hitMs, 0.5), "ms")
	m.set("hit_p99_ms", quantile(lr.hitMs, 0.99), "ms")
	m.set("hit_samples", float64(len(lr.hitMs)), "count")
	m.set("miss_p50_ms", quantile(lr.missMs, 0.5), "ms")
	m.set("miss_p99_ms", quantile(lr.missMs, 0.99), "ms")
	m.set("miss_samples", float64(len(lr.missMs)), "count")
	m.set("hit_service_p50_ms", quantile(lr.hitSvcMs, 0.5), "ms")
	m.set("miss_service_p50_ms", quantile(lr.missSvcMs, 0.5), "ms")
	m.set("gen_late_p99_ms", quantile(lr.lateMs, 0.99), "ms")
	m.set("offered_hit_rps", lr.hitRate, "1/s")
	m.set("offered_miss_rps", lr.missRate, "1/s")
}

// scheduled is one request of the open loop with its due time.
type scheduled struct {
	at   time.Duration // offset into the window
	due  time.Time
	miss bool
	name string
	body []byte // miss request body
}

// replay is a completed miss waiting to be re-sent as a hit.
type replay struct {
	name string
	body []byte
	want []byte
}

// openLoop offers hit and miss traffic for d and checks every
// response. Hits cycle over the warmed targets; each completed miss is
// replayed once, on the next hit slot, and must come back as a
// byte-identical hit. Latency runs from each request's scheduled send.
func (ms *mixedServer) openLoop(ctx context.Context, e *env, d time.Duration, hRate, mRate float64, reg *obs.Registry) (*loopResult, error) {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(ms.nextMiss)))
	var hits, misses []scheduled
	for _, stream := range []struct {
		rate float64
		miss bool
		out  *[]scheduled
	}{{hRate, false, &hits}, {mRate, true, &misses}} {
		if stream.rate <= 0 {
			continue
		}
		// Arrivals at the mean rate, each gap jittered uniformly by ±50%.
		gap := func() float64 { return (0.5 + rng.Float64()) / stream.rate }
		for t := gap(); t < d.Seconds(); t += gap() {
			sc := scheduled{at: time.Duration(t * float64(time.Second)), miss: stream.miss}
			if stream.miss {
				var err error
				if sc.name, sc.body, err = ms.missBody(e.seed); err != nil {
					return nil, err
				}
			}
			*stream.out = append(*stream.out, sc)
		}
	}
	// The clock starts once the schedule (and its miss bodies) is built.
	start := time.Now().Add(20 * time.Millisecond)
	for _, stream := range [][]scheduled{hits, misses} {
		for i := range stream {
			stream[i].due = start.Add(stream[i].at)
		}
	}
	lr := &loopResult{hitRate: hRate, missRate: mRate}
	var mu sync.Mutex // guards lr and pending
	var pending []replay
	record := func(sc scheduled, fired, sent time.Time, cached, shed bool) {
		mu.Lock()
		defer mu.Unlock()
		lr.requests++
		lr.lateMs = append(lr.lateMs, float64(fired.Sub(sc.due).Nanoseconds())/1e6)
		if sc.miss {
			lr.missMs = append(lr.missMs, msSince(sc.due))
			lr.missSvcMs = append(lr.missSvcMs, msSince(sent))
		} else {
			lr.hitMs = append(lr.hitMs, msSince(sc.due))
			lr.hitSvcMs = append(lr.hitSvcMs, msSince(sent))
		}
		if cached {
			lr.hits++
		}
		if shed {
			lr.shed++
		}
	}
	send := func(sc scheduled, fired time.Time) {
		sp := reg.StartSpan("serve-mixed")
		defer sp.End()
		var err error
		var resp response
		var rp *replay
		sent := time.Now()
		if sc.miss {
			req := sp.Child("miss")
			resp, err = post(ms.missC, ms.base+"/v1/experiments/scenario", sc.body)
			req.End()
			if err == nil {
				err = expect(sc.name, resp, "miss")
			}
			if err == nil {
				mu.Lock()
				pending = append(pending, replay{name: sc.name, body: sc.body, want: resp.body})
				mu.Unlock()
			}
		} else {
			mu.Lock()
			if len(pending) > 0 {
				rp = &pending[0]
				pending = pending[1:]
			}
			mu.Unlock()
			sent = time.Now()
			req := sp.Child("hit")
			if rp != nil {
				resp, err = ms.replay(*rp)
			} else {
				h := ms.hot[ms.nextHot%len(ms.hot)]
				ms.nextHot++
				resp, err = post(ms.hitC, ms.base+h.path, h.body)
				if err == nil {
					err = expect(h.name, resp, "hit")
				}
				if err == nil {
					err = checkBody(h.name, resp.code, resp.body, h.golden)
				}
			}
			req.End()
		}
		e.tally.check(err)
		shed := resp.code == http.StatusTooManyRequests || resp.code == http.StatusServiceUnavailable
		record(sc, fired, sent, resp.cache == "hit", shed)
	}

	var wg sync.WaitGroup
	for _, stream := range [][]scheduled{hits, misses} {
		if len(stream) == 0 {
			continue
		}
		fire := make(chan fired, len(stream)) // sized to the whole schedule: the generator never blocks
		wg.Add(2)
		go func() { // generator: fires each request at its due time
			defer wg.Done()
			defer close(fire)
			for _, sc := range stream {
				if wait := time.Until(sc.due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				fire <- fired{sc: sc, at: time.Now()}
			}
		}()
		go func() { // sender: one connection, requests in order
			defer wg.Done()
			for f := range fire {
				send(f.sc, f.at)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A replay still pending when the window closed has not been checked
	// yet: check it now, off the clock.
	for _, rp := range pending {
		_, err := ms.replay(rp)
		e.tally.check(err)
	}
	if len(lr.hitMs)+len(lr.missMs) == 0 {
		return nil, errors.New("open loop scheduled no request")
	}
	return lr, nil
}

// replay re-sends a completed miss, which must come back as a
// byte-identical hit.
func (ms *mixedServer) replay(rp replay) (response, error) {
	resp, err := post(ms.hitC, ms.base+"/v1/experiments/scenario", rp.body)
	if err == nil {
		err = expect(rp.name+" replay", resp, "hit")
	}
	if err == nil && !bytes.Equal(resp.body, rp.want) {
		err = fmt.Errorf("%s replay: body differs from the miss it replays", rp.name)
	}
	return resp, err
}

// fired is a request the generator released, with the time it did.
type fired struct {
	sc scheduled
	at time.Time
}

// expect checks status 200 and the X-Cache outcome of a response.
func expect(name string, r response, cache string) error {
	if r.code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", name, r.code, r.body)
	}
	if r.cache != cache {
		return fmt.Errorf("%s: X-Cache %q, want %q", name, r.cache, cache)
	}
	return nil
}
