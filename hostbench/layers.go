package main

import (
	"io"
	"time"

	"stronghold"
	"stronghold/hostbench/gen"
	"stronghold/hostbench/probe"
	"stronghold/internal/metrics"
)

// sweepLayers derives the core, plan, baselines and cluster metrics
// from the traced sweep's per-config records. The core parts are means
// over the core configs that planned and simulated, so solve + build +
// validate + exec adds up to core.run_ms exactly.
func sweepLayers(r *run, recs []configRecord) {
	var run, solve, build, validate, exec []float64
	var solveUS, execNS, execNSFaulted, allocs, bytes []float64
	var planBuild, planValidate, small, large []float64
	var baseRun, baseNS, clusterRun []float64
	for _, c := range recs {
		simulated := c.steps > 0
		switch c.Engine {
		case probe.Core:
			if !c.planned || !simulated {
				continue // too large to plan: the run is a capacity check only
			}
			ex := c.run - c.solve - c.build - c.validate
			run = append(run, ms(c.run))
			solve = append(solve, ms(c.solve))
			build = append(build, ms(c.build))
			validate = append(validate, ms(c.validate))
			exec = append(exec, ms(ex))
			solveUS = append(solveUS, us(c.solve))
			perEvent := float64(ex.Nanoseconds()) / float64(c.steps)
			if c.faulted {
				execNSFaulted = append(execNSFaulted, perEvent)
			} else {
				execNS = append(execNS, perEvent)
			}
			allocs = append(allocs, float64(c.allocs)/float64(c.steps))
			bytes = append(bytes, float64(c.bytes)/float64(c.steps))
		case probe.Baseline:
			baseRun = append(baseRun, us(c.run))
			if simulated {
				baseNS = append(baseNS, float64(c.run.Nanoseconds())/float64(c.steps))
			}
		case probe.Cluster:
			clusterRun = append(clusterRun, ms(c.run))
		}
		if c.planned && simulated {
			planBuild = append(planBuild, ms(c.build))
			planValidate = append(planValidate, ms(c.validate))
			share := float64(c.build+c.validate) / float64(c.run)
			switch {
			case c.size < 5:
				small = append(small, share)
			case c.size >= 20:
				large = append(large, share)
			}
		}
	}
	r.set("core.run_ms", "ms", mean(run))
	r.set("core.part.solve_ms", "ms", mean(solve))
	r.set("core.part.build_ms", "ms", mean(build))
	r.set("core.part.validate_ms", "ms", mean(validate))
	r.set("core.part.exec_ms", "ms", mean(exec))
	r.set("core.solve_us", "us", median(solveUS))
	r.set("core.exec_ns_per_event", "ns", median(execNS))
	r.set("core.exec_ns_per_event.faulted", "ns", median(execNSFaulted))
	r.set("core.allocs_per_event", "count", median(allocs))
	r.set("core.bytes_per_event", "B", median(bytes))
	r.set("plan.build_ms", "ms", median(planBuild))
	r.set("plan.validate_ms", "ms", median(planValidate))
	r.set("plan.share_of_run.small", "ratio", median(small))
	r.set("plan.share_of_run.large", "ratio", median(large))
	r.set("baselines.run_us", "us", median(baseRun))
	r.set("baselines.ns_per_event", "ns", median(baseNS))
	r.set("cluster.run_ms", "ms", median(clusterRun))
}

// perOp times fn, which returns how many operations it did, reps times
// under a span, and returns the median time and allocations per
// operation.
func perOp(r *run, name string, reps int, fn func() int) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		var ops int
		var d time.Duration
		a, _ := memDelta(func() {
			sp := r.tr.begin(name, i, -1)
			ops = fn()
			d = r.tr.end(sp)
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(a)/float64(ops))
	}
	return median(ns), median(allocs)
}

// overheadPct runs base and with alternately, reps times each, and
// returns the median percentage by which with is slower.
func overheadPct(r *run, name string, reps int, base, with func()) float64 {
	var pct []float64
	for i := 0; i < reps; i++ {
		sp := r.tr.begin(name+".off", i, -1)
		base()
		off := r.tr.end(sp)
		sp = r.tr.begin(name+".on", i, -1)
		with()
		on := r.tr.end(sp)
		pct = append(pct, 100*(on.Seconds()/off.Seconds()-1))
	}
	return median(pct)
}

// overheadConfig is the fixed config the observer-overhead probes run:
// STRONGHOLD on the V100 server at 4B parameters.
var overheadConfig = stronghold.SimConfig{SizeBillions: 4, Hidden: 2560, BatchSize: 4, Method: stronghold.Stronghold}

// layerProbes measures the layers no workload isolates: the sim event
// loop and WaitAll joins, hw launches and copies, and the cost of the
// metrics collector and of tracing inside a core run.
func layerProbes(r *run) {
	const reps = 15
	ns, allocs := perOp(r, "sim.event_dag", reps, func() int { return int(probe.EventDAG(20000)) })
	r.set("sim.ns_per_event", "ns", ns)
	r.set("sim.allocs_per_event", "count", allocs)
	ns, allocs = perOp(r, "sim.waitall_chain", reps, func() int { return probe.WaitAllChain(20000, 4) })
	r.set("sim.waitall_ns", "ns", ns)
	r.set("sim.waitall_allocs", "count", allocs)
	ns, allocs = perOp(r, "hw.launch_chain", reps, func() int { return probe.LaunchChain(10000) })
	r.set("hw.launch_ns", "ns", ns)
	r.set("hw.launch_allocs", "count", allocs)

	p, err := probe.Prepare(overheadConfig)
	if err != nil {
		panic("hostbench: overhead config: " + err.Error())
	}
	var col *metrics.Collector
	r.set("metrics.collector_overhead_pct", "%", overheadPct(r, "metrics.run", reps,
		func() { p.Run() },
		func() {
			col = metrics.New()
			p.RunWith(probe.Options{Metrics: col})
		}))
	var export []float64
	for i := 0; i < reps; i++ {
		sp := r.tr.begin("metrics.export", i, -1)
		err := col.WritePrometheus(io.Discard)
		export = append(export, us(r.tr.end(sp)))
		if err != nil {
			r.checkFailed("metrics export: %v", err)
		}
	}
	r.set("metrics.export_us", "us", median(export))
	r.set("trace.overhead_pct", "%", overheadPct(r, "trace.run", reps,
		func() { p.RunWith(probe.Options{NoTrace: true}) },
		func() { p.Run() }))
}

// sweepFill gives a serve workload's traced run the sweep-layer
// metrics: a short traced sim-sweep on the same seed.
func sweepFill(r *run) error {
	s, err := newSweeper(r)
	if err != nil {
		return err
	}
	s.runFor(r.share(0.15), 1, s.tracedRound)
	sweepLayers(r, s.records)
	return nil
}

// tracedServeFill gives the sim-sweep's traced run the serve-layer
// metrics: a short traced serve-hot pass on the same seed.
func tracedServeFill(r *run) error {
	serveProcs(r)
	tb := &timedBackend{tr: r.tr}
	tb.on.Store(true)
	hh, err := setupHot(r, tb)
	if err != nil {
		return err
	}
	hh.backend = tb
	tracedServe(r, hh.harness, hotProbeRate)
	return hh.close()
}

// tracedServe measures the serve and backend layers: the probe rate
// untraced, then traced with a span per request and per backend call,
// then the canonicalization cost of the bodies sent and /metrics
// scrapes.
func tracedServe(r *run, h *harness, rate float64) {
	tr := r.tr
	h.backend.on.Store(false)
	plain := h.openLoop(rate, r.share(0.15))
	h.backend.on.Store(true)
	traced := h.openLoop(rate, r.share(0.3))
	r.set("loadgen.lag_p99_ms", "ms", quantile(lags(plain), 0.99))
	r.set("harness.trace_overhead_pct", "%", 100*(traced.p(0.5)/plain.p(0.5)-1))

	// Request spans: the generator's wait (due → sent) is the root's
	// self time; the serve layer's is the child's (sent → done) less the
	// backend call joined to it by canonical key.
	epoch := traced.start.Sub(tr.epoch)
	var served []int // serve.request spans of answered simulation requests
	var bodies []gen.Request
	tr.mu.Lock() // backend spans were added on server goroutines
	backendByKey := make(map[string][]int)
	for i, s := range tr.spans {
		if s.Key != "" {
			backendByKey[s.Key] = append(backendByKey[s.Key], i)
		}
	}
	for _, s := range traced.samples {
		req := h.request(s.Index)
		root := len(tr.spans)
		child := root + 1
		tr.spans = append(tr.spans,
			span{Name: "request", ID: s.Index, Parent: -1, Start: epoch + s.Due, End: epoch + s.Done},
			span{Name: "serve.request", ID: s.Index, Parent: root, Start: epoch + s.Sent, End: epoch + s.Done})
		if req.Get() || s.Err != nil {
			continue
		}
		served = append(served, child)
		bodies = append(bodies, req)
		for _, b := range backendByKey[req.Hash] {
			if bs := tr.spans[b]; bs.Start >= epoch+s.Sent && bs.End <= epoch+s.Done {
				tr.spans[b].Parent, tr.spans[b].ID = child, s.Index
			}
		}
	}
	tr.mu.Unlock()
	var canon []float64
	for _, req := range bodies {
		t0 := time.Now()
		_, err := gen.Canonical(req.Path, req.Body)
		canon = append(canon, us(time.Since(t0)))
		if err != nil {
			r.checkFailed("canonicalizing %s: %v", req.Path, err)
		}
	}
	selfTimes := tr.selfTimes()
	var self []float64
	for _, i := range served {
		self = append(self, us(selfTimes[i]))
	}
	r.set("serve.self_us", "us", median(self))
	r.set("serve.canon_us", "us", median(canon))

	var scrapes []float64
	for i := 0; i < 25; i++ {
		sp := tr.begin("serve.metrics_scrape", i, -1)
		_, err := h.do(gen.Request{Path: gen.PathMetrics})
		scrapes = append(scrapes, us(tr.end(sp)))
		if err != nil {
			r.checkFailed("scraping /metrics: %v", err)
		}
	}
	r.set("serve.metrics_scrape_us", "us", median(scrapes))

	if c := h.checkAccounting(); c != nil {
		cacheable := float64(h.cacheable.Load())
		lookups := c["cache_hits_total"] + c["cache_misses_total"] + c["singleflight_shared_total"]
		r.set("serve.hit_ratio", "ratio", c["cache_hits_total"]/lookups)
		r.set("serve.sims_per_request", "ratio", c["simulations_total"]/cacheable)
		r.set("serve.reject_share", "ratio", c["rejected_total"]/cacheable)
		r.set("serve.shared_share", "ratio", c["singleflight_shared_total"]/cacheable)
	}
	for _, b := range []struct{ span, metric string }{
		{"backend.solve", "backend.solve_us"},
		{"backend.capacity", "backend.capacity_us"},
	} {
		d := tr.durations(b.span, us)
		r.set(b.metric+".p50", "us", quantile(d, 0.5))
		r.set(b.metric+".p99", "us", quantile(d, 0.99))
	}
	d := tr.durations("backend.whatif", ms)
	r.set("backend.whatif_ms.p50", "ms", quantile(d, 0.5))
	r.set("backend.whatif_ms.p99", "ms", quantile(d, 0.99))
}

func lags(s step) []float64 {
	out := make([]float64, len(s.samples))
	for i, x := range s.samples {
		out[i] = ms(x.Lag())
	}
	return out
}
