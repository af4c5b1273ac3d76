// Package probe holds the benchmark's engine-touching helpers: a
// phase-by-phase copy of stronghold.Simulate, so the traced run can
// time each layer from outside, and fixed synthetic workloads built on
// the sim and hw public APIs. It reads no clock and starts no
// goroutines; the timing lives in the benchmark's main package, the
// same split as internal/bench and cmd/stronghold-bench.
package probe

import (
	"fmt"

	"stronghold"
	"stronghold/internal/baselines"
	"stronghold/internal/cluster"
	"stronghold/internal/core"
	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Engine names the layer that runs a config.
type Engine int

// The three engines stronghold.Simulate dispatches to.
const (
	Core Engine = iota
	Baseline
	Cluster
)

// Sim is one config prepared for phase-by-phase execution.
type Sim struct {
	c      stronghold.SimConfig
	cfg    modelcfg.Config
	plat   hw.Platform
	info   *modelcfg.MethodInfo
	faults *fault.Plan
}

// Prepare resolves a config the way stronghold.Simulate does.
func Prepare(c stronghold.SimConfig) (*Sim, error) {
	plat := hw.V100Platform()
	if c.Platform == stronghold.A10Cluster {
		plat = hw.A10ClusterPlatform()
	}
	cfg, err := modelcfg.ConfigSpec{
		SizeBillions: c.SizeBillions, Layers: c.Layers, Hidden: c.Hidden,
		BatchSize: c.BatchSize, ModelParallel: c.ModelParallel,
	}.Resolve()
	if err != nil {
		return nil, err
	}
	info := modelcfg.Lookup(c.Method)
	if info == nil {
		return nil, fmt.Errorf("probe: unknown method %v", c.Method)
	}
	s := &Sim{c: c, cfg: cfg, plat: plat, info: info}
	if c.Faults != "" {
		if s.faults, err = fault.ParsePlan(c.Faults); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Engine reports which layer runs the config.
func (s *Sim) Engine() Engine {
	switch s.info.Engine {
	case modelcfg.EngineCore:
		return Core
	case modelcfg.EngineCluster:
		return Cluster
	}
	return Baseline
}

// Planned reports whether the config runs a plan-IR schedule.
func (s *Sim) Planned() bool { return s.info.PlanDriven }

// Faulted reports whether the config carries a fault plan.
func (s *Sim) Faulted() bool { return s.faults != nil }

func (s *Sim) model() perf.Model { return perf.NewModel(s.cfg, s.plat) }

// engine builds a fresh core engine configured as Simulate does.
func (s *Sim) engine() *core.Engine {
	e := core.NewEngine(s.model())
	e.Window = s.c.Window
	if s.c.Streams > 0 {
		e.Feat.Streams = s.c.Streams
	}
	e.Feat.UseNVMe = s.info.NVMe
	e.CoOpt = s.c.CoOpt
	e.TransferJitter = s.c.TransferJitter
	e.LayerScale = s.c.LayerScale
	if s.faults != nil {
		e.Faults = s.faults
		e.Adapt.DisableResolve = s.c.DisableAdapt
	}
	return e
}

// Solve runs the core engine's warm-up solve (Engine.SolvedDecision)
// and returns the window it picks.
func (s *Sim) Solve() (int, error) {
	d, err := s.engine().SolvedDecision()
	return d.M, err
}

// Plan is one built iteration schedule.
type Plan struct{ it *plan.Iteration }

// Build plans one iteration: Engine.BuildPlan at the given window for
// core configs, baselines.PlanFor (which validates) for plan-driven
// baselines.
func (s *Sim) Build(window int) (Plan, error) {
	var it *plan.Iteration
	var err error
	if s.Engine() == Core {
		it, err = s.engine().BuildPlan(window)
	} else {
		it, err = baselines.PlanFor(s.c.Method, s.model())
	}
	return Plan{it}, err
}

// Validate runs the plan validator (plan.Validate).
func (p Plan) Validate() error { return plan.Validate(p.it) }

// Options toggles the optional observers of a core run.
type Options struct {
	Metrics *metrics.Collector // installed as Engine.Metrics when non-nil
	NoTrace bool               // run with a nil trace (Simulate always traces)
}

// Run simulates the config exactly as stronghold.Simulate does and
// returns its result with the number of simulation events executed.
func (s *Sim) Run() (stronghold.SimResult, uint64) {
	return s.RunWith(Options{})
}

// RunWith is Run with the core engine's observers toggled.
func (s *Sim) RunWith(o Options) (stronghold.SimResult, uint64) {
	m := s.model()
	var r perf.IterationResult
	switch s.Engine() {
	case Core:
		e := s.engine()
		e.Metrics = o.Metrics
		var tr *trace.Trace
		if !o.NoTrace {
			tr = trace.New()
		}
		r = e.Run(3, tr)
	case Cluster:
		r = cluster.Run(cluster.Setup{Plat: s.plat, Cfg: s.cfg, Method: s.c.Method, HeteroCollectives: true})
	default:
		r = baselines.RunWith(s.c.Method, m, baselines.Options{Faults: s.faults})
	}
	out := stronghold.SimResult{
		Method:        s.c.Method,
		ModelBillions: s.cfg.ParamsBillion(),
		OOM:           r.OOM,
		Detail:        r.OOMDetail,
	}
	if !r.OOM {
		out.IterSeconds = sim.Seconds(r.IterTime)
		out.SamplesPerSec = r.Throughput(s.cfg.BatchSize)
		out.TFLOPS = r.TFLOPS(m.TotalFlops())
		out.GPUPeakGB = float64(r.GPUPeak) / float64(hw.GB)
		out.Overlap = r.Overlap
		out.OptGPUFrac = r.OptGPUFrac
		out.Retries = r.Retries
		out.DeadlineMisses = r.DeadlineMisses
		out.WindowResolves = r.WindowResolves
		out.FinalWindow = r.FinalWindow
	}
	return out, r.Steps
}

// EventDAG runs a fixed synthetic DAG on the sim engine: n tasks over
// four resources, each waiting on the two tasks before it, plus a
// scheduled callback per task. It returns the events executed.
func EventDAG(n int) uint64 {
	eng := sim.NewEngine()
	res := make([]*sim.Resource, 4)
	for i := range res {
		res[i] = sim.NewResource(eng, fmt.Sprintf("r%d", i))
	}
	sigs := []*sim.Signal{sim.FiredSignal(eng), sim.FiredSignal(eng)}
	var ticks int
	for i := 0; i < n; i++ {
		deps := []*sim.Signal{sigs[len(sigs)-1], sigs[len(sigs)-2]}
		sigs = append(sigs, res[i%len(res)].SubmitAfter(deps, sim.Time(1000+i%7*100), nil))
		eng.Schedule(sim.Time(i*50), func() { ticks++ })
	}
	eng.Run()
	if ticks != n || !sigs[len(sigs)-1].Fired() {
		panic("probe: event DAG did not drain")
	}
	return eng.Steps()
}

// WaitAllChain registers n WaitAll joins of fan-in k on the sim engine:
// each join waits on the k signals before it and fires the next. It
// returns the number of joins that fired.
func WaitAllChain(n, k int) int {
	eng := sim.NewEngine()
	sigs := make([]*sim.Signal, 0, n+k)
	for i := 0; i < k; i++ {
		s := sim.NewSignal(eng)
		eng.Schedule(sim.Time(i), s.Fire)
		sigs = append(sigs, s)
	}
	fired := 0
	for i := 0; i < n; i++ {
		next := sim.NewSignal(eng)
		sim.WaitAll(eng, sigs[len(sigs)-k:], func() {
			fired++
			next.Fire()
		})
		sigs = append(sigs, next)
	}
	eng.Run()
	return fired
}

// LaunchChain issues n kernel launches on one stream of a V100 machine,
// each followed by a pinned host-to-device copy that waits for it, and
// runs them to completion. It returns the number of operations issued.
func LaunchChain(n int) int {
	eng := sim.NewEngine()
	m, err := hw.NewMachine(eng, hw.V100Platform(), hw.GB)
	if err != nil {
		panic("probe: " + err.Error())
	}
	st := m.NewStream("probe")
	prev := sim.FiredSignal(eng)
	for i := 0; i < n; i++ {
		k := st.Launch(1e9, 0.5, []*sim.Signal{prev}, nil)
		prev = m.CopyH2D(1<<20, true, []*sim.Signal{k})
	}
	eng.Run()
	if !prev.Fired() {
		panic("probe: launch chain did not drain")
	}
	return 2 * n
}
