package main

import (
	"fmt"
	"runtime"
	"time"

	"stronghold"
	"stronghold/hostbench/gen"
	"stronghold/hostbench/probe"
)

// modelledRounds is how many leading rounds of the sweep feed
// modelled_samples_per_s, so the virtual-time metric is a pure function
// of the seed however fast the host is.
const modelledRounds = 10

// sweeper runs the sim-sweep stream and checks every result against the
// recorded expected digests.
type sweeper struct {
	r       *run
	want    map[string]string
	stream  *gen.Sweep
	rounds  int
	modeled []float64      // STRONGHOLD samples/s from the leading rounds
	lat     []float64      // wall time of each Simulate call that fit, ms
	rates   []float64      // per-round Simulate calls per second of call time
	records []configRecord // traced rounds only
}

func newSweeper(r *run) (*sweeper, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	return &sweeper{r: r, want: want, stream: gen.NewSweep(r.seed)}, nil
}

func isStronghold(m stronghold.Method) bool {
	return m == stronghold.Stronghold || m == stronghold.StrongholdNVMe
}

// check compares a result with its recorded digest and notes the
// virtual-time throughput of the leading rounds.
func (s *sweeper) check(c gen.Config, res stronghold.SimResult) error {
	if s.rounds < modelledRounds && isStronghold(c.Sim.Method) && !res.OOM {
		s.modeled = append(s.modeled, res.SamplesPerSec)
	}
	if got := digest(res); got != s.want[c.Key] {
		return fmt.Errorf("sim-sweep %s: result digest %s, recorded %s (%+v)", c.Key, got, s.want[c.Key], res)
	}
	return nil
}

// settle collects garbage before a measured stretch, outside its
// timing, so every round or step starts from the same heap state and
// the peak resident memory does not hinge on where a collection fell.
func settle() { runtime.GC() }

// round runs one round through stronghold.Simulate.
func (s *sweeper) round() {
	cfgs := s.stream.Round()
	settle()
	var errs []error
	var busy time.Duration
	for _, c := range cfgs {
		t0 := time.Now()
		res, err := stronghold.Simulate(c.Sim)
		d := time.Since(t0)
		busy += d
		if err == nil && !res.OOM {
			// Configs that do not fit return after a capacity check;
			// the latency percentiles describe the ones that simulate.
			s.lat = append(s.lat, ms(d))
		}
		if err == nil {
			err = s.check(c, res)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	s.rates = append(s.rates, float64(len(cfgs))/busy.Seconds())
	s.rounds++
	s.r.count(len(cfgs), errs)
}

// runFor runs whole rounds until d has passed and at least minRounds
// are done, and returns the elapsed time and configs run.
func (s *sweeper) runFor(d time.Duration, minRounds int, round func()) (time.Duration, int) {
	start, n0, r0 := time.Now(), s.r.attempted, s.rounds
	for time.Since(start) < d || s.rounds-r0 < minRounds {
		round()
	}
	return time.Since(start), s.r.attempted - n0
}

func runSweep(r *run) error {
	var s *sweeper
	setup, err := setups(9, func() error {
		var err error
		s, err = newSweeper(r)
		return err
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return tracedSweep(r, s)
	}
	elapsed, n := s.runFor(r.share(1), modelledRounds, s.round)
	r.set("sims_per_s", "1/s", median(s.rates))
	r.set("max_rps", "1/s", float64(n)/elapsed.Seconds())
	r.set("p50_ms", "ms", median(s.lat))
	r.set("p99_ms", "ms", quantile(s.lat, 0.99))
	r.set("modelled_samples_per_s", "samples/s", geomean(s.modeled))
	r.set("setup_s", "s", setup)
	return nil
}

// tracedSweep runs a share of the sweep untraced and the rest through
// the phase-by-phase probe with spans, then the fixed layer probes and
// a short traced serve-hot pass for the serve metrics.
func tracedSweep(r *run, s *sweeper) error {
	plain, n := s.runFor(r.share(0.15), 1, s.round)
	untraced := float64(n) / plain.Seconds()
	traced, n := s.runFor(r.share(0.45), 1, s.tracedRound)
	r.set("harness.trace_overhead_pct", "%", 100*(untraced*traced.Seconds()/float64(n)-1))
	sweepLayers(r, s.records)
	layerProbes(r)
	return tracedServeFill(r)
}

// memDelta reads the allocation counters around a call.
func memDelta(fn func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// configRecord is what the traced sweep keeps per config beyond spans.
type configRecord struct {
	probe.Engine
	faulted, planned bool
	size             float64
	steps            uint64
	allocs, bytes    uint64
	solve, build     time.Duration
	validate, run    time.Duration
}

// tracedRound runs one round phase by phase, with a span around every
// call into core, plan, baselines and cluster.
func (s *sweeper) tracedRound() {
	tr := s.r.tr
	cfgs := s.stream.Round()
	var errs []error
	for _, c := range cfgs {
		id := len(s.records)
		if err := s.tracedConfig(tr, id, c); err != nil {
			errs = append(errs, err)
		}
	}
	s.rounds++
	s.r.count(len(cfgs), errs)
}

func (s *sweeper) tracedConfig(tr *tracer, id int, c gen.Config) error {
	root := tr.begin("sweep.config", id, -1)
	defer tr.end(root)
	p, err := probe.Prepare(c.Sim)
	if err != nil {
		return fmt.Errorf("sim-sweep %s: %w", c.Key, err)
	}
	rec := configRecord{Engine: p.Engine(), faulted: p.Faulted(), size: c.Sim.SizeBillions}
	timed := func(name string, fn func()) time.Duration {
		i := tr.begin(name, id, root)
		fn()
		return tr.end(i)
	}
	var res stronghold.SimResult
	// A config whose plan cannot be built (one too large for the
	// device) still runs, to its OOM result; it just has no plan phase.
	switch p.Engine() {
	case probe.Core:
		var window int
		var it probe.Plan
		rec.solve = timed("core.solve", func() { window, err = p.Solve() })
		if err == nil {
			rec.build = timed("plan.build", func() { it, err = p.Build(window) })
		}
		if err == nil {
			rec.validate = timed("plan.validate", func() { err = it.Validate() })
			rec.planned = err == nil
		}
		rec.allocs, rec.bytes = memDelta(func() {
			rec.run = timed("core.run", func() { res, rec.steps = p.Run() })
		})
	case probe.Baseline:
		if p.Planned() {
			var it probe.Plan
			// PlanFor validates; the build share is PlanFor minus a
			// second, separately timed validation.
			buildAndValidate := timed("plan.build", func() { it, err = p.Build(0) })
			if err == nil {
				rec.validate = timed("plan.validate", func() { err = it.Validate() })
				rec.build = max(buildAndValidate-rec.validate, 0)
				rec.planned = err == nil
			}
		}
		rec.run = timed("baselines.run", func() { res, rec.steps = p.Run() })
	case probe.Cluster:
		rec.run = timed("cluster.run", func() { res, rec.steps = p.Run() })
	}
	s.records = append(s.records, rec)
	return s.check(c, res)
}
