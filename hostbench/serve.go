package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stronghold/hostbench/gen"
	"stronghold/hostbench/loadgen"
	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

// Serve workload parameters. Offered rates and latency limits are fixed
// so every commit is measured at the same load.
const (
	hotProbeRate  = 2000.0 // requests/s
	hotLimit      = 10 * time.Millisecond
	coldProbeRate = 100.0
	coldLimit     = 100 * time.Millisecond
	// The max_rps search ramps the offered rate by rampFactor from the
	// probe rate until a step misses the limit, then bisects.
	rampFactor = 1.5
	maxRamp    = 8
	bisections = 4
	setupRuns  = 7
	// maxWindows: the probe phase's latency percentiles are medians over
	// up to this many consecutive windows, so one noisy moment on a
	// shared host does not set the run's figure.
	maxWindows = 9
)

// server is stronghold-serve's handler on a loopback listener.
type server struct {
	url  string
	http *http.Server
	api  *serve.Server
	done chan error
}

func startServer(b serve.Backend, pool int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := serve.New(b, serve.Options{MaxConcurrent: pool})
	s := &server{
		url:  "http://" + ln.Addr().String(),
		http: &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second},
		api:  api,
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its listener goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.api.Shutdown()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedBackend decorates the simulator backend with a span per call,
// keyed by the canonical request hash so each span can be joined to the
// request that caused it.
type timedBackend struct {
	tr *tracer
	on atomic.Bool
}

func (b *timedBackend) call(name, path string, req any, fn func() error) error {
	if !b.on.Load() {
		return fn()
	}
	start := b.tr.now()
	err := fn()
	end := b.tr.now()
	body, merr := json.Marshal(req)
	if merr != nil {
		return merr
	}
	hash, herr := gen.Canonical(path, body)
	if herr != nil {
		return herr
	}
	b.tr.add(span{Name: name, ID: -1, Parent: -1, Start: start, End: end, Key: hash})
	return err
}

func (b *timedBackend) Solve(req serve.SolveRequest) (resp serve.SolveResponse, err error) {
	err = b.call("backend.solve", gen.PathSolve, req, func() error {
		resp, err = backend.Sim{}.Solve(req)
		return err
	})
	return resp, err
}

func (b *timedBackend) Capacity(req serve.CapacityRequest) (resp serve.CapacityResponse, err error) {
	err = b.call("backend.capacity", gen.PathCapacity, req, func() error {
		resp, err = backend.Sim{}.Capacity(req)
		return err
	})
	return resp, err
}

func (b *timedBackend) WhatIf(req serve.WhatIfRequest) (resp serve.WhatIfResponse, err error) {
	err = b.call("backend.whatif", gen.PathWhatIf, req, func() error {
		resp, err = backend.Sim{}.WhatIf(req)
		return err
	})
	return resp, err
}

// harness drives one server with one stream of requests.
type harness struct {
	r       *run
	srv     *server
	hc      *http.Client
	workers int
	limit   time.Duration
	request func(i int) gen.Request
	ensure  func(n int) // extends a finite stream; nil for an endless one
	next    int         // next unused stream index
	backend *timedBackend

	// check validates one response; it runs on worker goroutines.
	check func(req gen.Request, body []byte) error

	cacheable atomic.Int64 // simulation-endpoint requests sent
	modelMu   sync.Mutex
	modelled  []float64 // samples/s from what-if answers of the probe phase
	probing   atomic.Bool
}

func newHarness(r *run, b serve.Backend, limit time.Duration) (*harness, error) {
	srv, err := startServer(b, r.nproc)
	if err != nil {
		return nil, err
	}
	workers := r.nproc
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	return &harness{
		r: r, srv: srv, workers: workers, limit: limit,
		hc: &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}, nil
}

func (h *harness) close() error {
	h.hc.CloseIdleConnections()
	return h.srv.stop()
}

// do sends one request and returns its body; non-200 answers are errors.
func (h *harness) do(req gen.Request) ([]byte, error) {
	var resp *http.Response
	var err error
	if req.Get() {
		resp, err = h.hc.Get(h.srv.url + req.Path)
	} else {
		h.cacheable.Add(1)
		resp, err = h.hc.Post(h.srv.url+req.Path, "application/json", bytes.NewReader(req.Body))
	}
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// send is the load generator's callback: one request, checked.
func (h *harness) send(i int) error {
	req := h.request(i)
	body, err := h.do(req)
	if err == nil && h.check != nil {
		err = h.check(req, body)
	}
	return err
}

// decode strictly decodes a simulation answer into its endpoint's
// response type and checks it answers the request that was sent.
func (h *harness) decode(req gen.Request, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var hash string
	switch req.Path {
	case gen.PathSolve:
		var v serve.SolveResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("%s: %w", req.Path, err)
		}
		if v.Window.M <= 0 {
			return fmt.Errorf("%s: window %d", req.Path, v.Window.M)
		}
		hash = v.Hash
	case gen.PathCapacity:
		var v serve.CapacityResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("%s: %w", req.Path, err)
		}
		if len(v.Rows) == 0 {
			return fmt.Errorf("%s: no rows", req.Path)
		}
		hash = v.Hash
	case gen.PathWhatIf:
		var v serve.WhatIfResponse
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("%s: %w", req.Path, err)
		}
		if v.Clean.SamplesPerSec <= 0 || v.Degraded.SamplesPerSec <= 0 {
			return fmt.Errorf("%s: non-positive throughput in %s", req.Path, body)
		}
		if h.probing.Load() {
			h.modelMu.Lock()
			h.modelled = append(h.modelled, v.Clean.SamplesPerSec, v.Degraded.SamplesPerSec)
			h.modelMu.Unlock()
		}
		hash = v.Hash
	default:
		return nil
	}
	if hash != req.Hash {
		return fmt.Errorf("%s: answer is for key %s, request key is %s", req.Path, hash, req.Hash)
	}
	return nil
}

// closedLoop sends requests first..first+n-1 back to back from the
// given number of workers until all are done or the deadline passes,
// and returns how many completed.
func (h *harness) closedLoop(first, n, workers int, deadline time.Time) (int, []error) {
	var next atomic.Int64
	var mu sync.Mutex
	var errs []error
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				err := h.send(first + k)
				mu.Lock()
				done++
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	h.r.count(done, errs)
	return done, errs
}

// step is one open-loop run at a fixed offered rate.
type step struct {
	samples  []loadgen.Sample
	start    time.Time // the samples' time origin
	lat      []float64 // ms; failures count as +Inf
	failures int
}

func (s step) p(q float64) float64 { return quantile(s.lat, q) }

// windowed is the q-quantile of latency as the median over consecutive
// windows of the step, each long enough to hold at least ten samples
// beyond the quantile.
func (s step) windowed(q float64) float64 {
	w := max(1, min(maxWindows, int(float64(len(s.lat))*(1-q)/10)))
	n := len(s.lat) / w
	var per []float64
	for i := 0; i < w; i++ {
		per = append(per, quantile(s.lat[i*n:(i+1)*n], q))
	}
	return median(per)
}

// achieved is the completion rate: requests per second from the first
// due time to the last completion.
func (s step) achieved() float64 {
	return float64(len(s.samples)) / s.samples[len(s.samples)-1].Done.Seconds()
}

// openLoop offers rate requests/s for d.
func (h *harness) openLoop(rate float64, d time.Duration) step {
	n := max(1, int(rate*d.Seconds()))
	if h.ensure != nil {
		h.ensure(h.next + n)
	}
	settle()
	t0, samples := loadgen.Run(rate, n, h.next, h.workers, h.send)
	h.next += n
	st := step{samples: samples, start: t0}
	var errs []error
	for _, s := range samples {
		if s.Err != nil {
			errs = append(errs, s.Err)
			st.lat = append(st.lat, math.Inf(1))
			continue
		}
		st.lat = append(st.lat, ms(s.Latency()))
	}
	st.failures = len(errs)
	h.r.count(n, errs)
	return st
}

// passes reports whether a step met the latency limit without failures
// or a growing backlog.
func (h *harness) passes(s step) bool {
	return s.failures == 0 && s.p(0.99) <= ms(h.limit) && !loadgen.Growing(s.samples, h.limit)
}

// tryRate offers rate for d and reports whether it passed and the
// completion rate achieved. A failing rate is offered once more before
// it counts as failed, so a passing disturbance on a shared host does
// not end the search.
func (h *harness) tryRate(rate float64, d time.Duration) (bool, float64) {
	for i := 0; i < 2; i++ {
		if s := h.openLoop(rate, d); h.passes(s) {
			return true, s.achieved()
		}
	}
	return false, 0
}

// maxRPS searches for the highest offered rate that passes and returns
// the completion rate achieved there.
func (h *harness) maxRPS(from float64, d time.Duration) float64 {
	var lo, hi, best float64
	for rate, i := from, 0; i < maxRamp; i++ {
		ok, got := h.tryRate(rate, d)
		if !ok {
			hi = rate
			break
		}
		lo, best = rate, got
		rate *= rampFactor
	}
	if lo == 0 { // the starting rate already fails: search below it
		lo, hi = from/math.Pow(rampFactor, maxRamp), from
	}
	if hi == 0 { // never failed within the ramp
		return best
	}
	for i := 0; i < bisections; i++ {
		mid := math.Sqrt(lo * hi)
		if ok, got := h.tryRate(mid, d); ok {
			lo, best = mid, got
		} else {
			hi = mid
		}
	}
	if best == 0 {
		h.r.checkFailed("max_rps: no offered rate down to %.1f/s met the %v p99 limit", lo, h.limit)
	}
	return best
}

// serveCounters reads the server's /metrics counters.
func (h *harness) serveCounters() (map[string]float64, error) {
	body, err := h.do(gen.Request{Path: gen.PathMetrics})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", sc.Text(), err)
		}
		out[strings.TrimPrefix(f[0], "stronghold_serve_")] = v
	}
	return out, sc.Err()
}

// checkAccounting verifies that every simulation request the harness
// sent is accounted for exactly once in the cache counters, and returns
// the counters.
func (h *harness) checkAccounting() map[string]float64 {
	c, err := h.serveCounters()
	if err != nil {
		h.r.checkFailed("scraping /metrics: %v", err)
		return nil
	}
	got := c["cache_hits_total"] + c["cache_misses_total"] + c["singleflight_shared_total"] + c["rejected_total"]
	if sent := float64(h.cacheable.Load()); got != sent {
		h.r.checkFailed("/metrics accounts for %v simulation requests (hits %v + misses %v + shared %v + rejected %v), the harness sent %v",
			got, c["cache_hits_total"], c["cache_misses_total"], c["singleflight_shared_total"], c["rejected_total"], sent)
	}
	return c
}

// Serve workloads raise GOMAXPROCS by the client workers: each sleeps
// in the kernel holding its thread, and the server's handlers must not
// wait for the runtime to reclaim those processors.
func serveProcs(r *run) { runtime.GOMAXPROCS(2 * r.nproc) }

// hotHarness is a server with a warmed cache and the hot stream.
type hotHarness struct {
	*harness
	stream  *gen.Hot
	bodies  map[int][]byte // warm-up answer per key
	methods []byte
	warmSPS float64 // backend computations per second while warming
}

// setupHot builds the hot stream, starts a server and warms its cache:
// every key once, one after another.
func setupHot(r *run, b serve.Backend) (*hotHarness, error) {
	stream := gen.NewHot(r.seed)
	h, err := newHarness(r, b, hotLimit)
	if err != nil {
		return nil, err
	}
	hh := &hotHarness{harness: h, stream: stream, bodies: make(map[int][]byte)}
	var mu sync.Mutex
	h.request = func(i int) gen.Request { return stream.Keys[i] }
	h.check = func(req gen.Request, body []byte) error {
		if err := h.decode(req, body); err != nil {
			return err
		}
		mu.Lock()
		hh.bodies[req.Key] = body
		mu.Unlock()
		return nil
	}
	start := time.Now()
	n, errs := h.closedLoop(0, len(stream.Keys), 1, time.Now().Add(time.Minute))
	hh.warmSPS = float64(n) / time.Since(start).Seconds()
	if len(errs) > 0 || n != len(stream.Keys) {
		return hh, fmt.Errorf("warming the cache: %d of %d keys answered: %v", n-len(errs), len(stream.Keys), errs)
	}
	if hh.methods, err = h.do(gen.Request{Path: gen.PathMethods}); err != nil {
		return hh, err
	}
	var m serve.MethodsResponse
	if err := json.Unmarshal(hh.methods, &m); err != nil || len(m.Methods) == 0 {
		return hh, fmt.Errorf("/v1/methods: %d methods, %v", len(m.Methods), err)
	}
	// From here on every answer must repeat, byte for byte, the one
	// recorded for its key.
	h.request = stream.Request
	h.check = func(req gen.Request, body []byte) error {
		switch {
		case req.Path == gen.PathMetrics:
			return nil
		case req.Path == gen.PathMethods:
			if !bytes.Equal(body, hh.methods) {
				return fmt.Errorf("/v1/methods answer changed")
			}
		case !bytes.Equal(body, hh.bodies[req.Key]):
			return fmt.Errorf("%s key %d: answer differs from the cached one:\n%s", req.Path, req.Key, body)
		}
		return nil
	}
	return hh, nil
}

func runServeHot(r *run) error {
	serveProcs(r)
	var b serve.Backend = backend.Sim{}
	var tb *timedBackend
	if r.tr != nil {
		tb = &timedBackend{tr: r.tr}
		tb.on.Store(true)
		b = tb
	}
	var hh *hotHarness
	var warm []float64
	setup, err := setups(setupRuns, func() error {
		if hh != nil {
			if err := hh.close(); err != nil {
				return err
			}
		}
		var err error
		hh, err = setupHot(r, b)
		if hh != nil {
			warm = append(warm, hh.warmSPS)
		}
		return err
	})
	if err != nil {
		return err
	}
	hh.backend = tb
	if r.tr != nil {
		tracedServe(r, hh.harness, hotProbeRate)
		if err := hh.close(); err != nil {
			return err
		}
		layerProbes(r)
		return sweepFill(r)
	}
	// The hot answers' modelled throughput is read from the warm-up
	// bodies: every what-if key, clean and degraded.
	for k, body := range hh.bodies {
		hh.probing.Store(true)
		if err := hh.decode(hh.stream.Keys[k], body); err != nil {
			return err
		}
	}
	hh.probing.Store(false)
	probe := hh.openLoop(hotProbeRate, r.share(0.45))
	maxRPS := hh.maxRPS(hotProbeRate*rampFactor, r.share(0.05))
	hh.checkAccounting()
	r.set("p50_ms", "ms", probe.windowed(0.5))
	r.set("p99_ms", "ms", probe.windowed(0.99))
	r.set("max_rps", "1/s", maxRPS)
	r.set("sims_per_s", "1/s", median(warm))
	r.set("modelled_samples_per_s", "samples/s", geomean(hh.modelled))
	r.set("setup_s", "s", setup)
	return hh.close()
}

// setupCold builds the cold stream's first stretch and starts a server.
func setupCold(r *run, b serve.Backend) (*harness, error) {
	stream := gen.NewCold(r.seed)
	stream.Ensure(int(coldProbeRate * r.share(0.5).Seconds()))
	h, err := newHarness(r, b, coldLimit)
	if err != nil {
		return nil, err
	}
	h.request = stream.Request
	h.ensure = stream.Ensure
	h.check = h.decode
	// Open the client's connections before anything is timed.
	for i := 0; i < h.workers; i++ {
		if _, err := h.do(gen.Request{Path: gen.PathMethods}); err != nil {
			return h, err
		}
	}
	return h, nil
}

func runServeCold(r *run) error {
	serveProcs(r)
	var b serve.Backend = backend.Sim{}
	var tb *timedBackend
	if r.tr != nil {
		tb = &timedBackend{tr: r.tr}
		b = tb
	}
	var h *harness
	setup, err := setups(setupRuns, func() error {
		if h != nil {
			if err := h.close(); err != nil {
				return err
			}
		}
		var err error
		h, err = setupCold(r, b)
		return err
	})
	if err != nil {
		return err
	}
	h.backend = tb
	if r.tr != nil {
		tracedServe(r, h, coldProbeRate)
		if err := h.close(); err != nil {
			return err
		}
		layerProbes(r)
		return sweepFill(r)
	}
	h.probing.Store(true)
	probe := h.openLoop(coldProbeRate, r.share(0.5))
	h.probing.Store(false)
	// Saturation: back-to-back fresh keys from every worker.
	satN := 5000
	h.ensure(h.next + satN)
	settle()
	start := time.Now()
	n, _ := h.closedLoop(h.next, satN, h.workers, start.Add(r.share(0.15)))
	sims := float64(n) / time.Since(start).Seconds()
	h.next += satN
	maxRPS := h.maxRPS(coldProbeRate*rampFactor, r.share(0.06))
	h.checkAccounting()
	r.set("p50_ms", "ms", probe.windowed(0.5))
	r.set("p99_ms", "ms", probe.windowed(0.99))
	r.set("max_rps", "1/s", maxRPS)
	r.set("sims_per_s", "1/s", sims)
	r.set("modelled_samples_per_s", "samples/s", geomean(h.modelled))
	r.set("setup_s", "s", setup)
	return h.close()
}
