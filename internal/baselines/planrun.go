package baselines

import (
	"fmt"

	"stronghold/internal/fault"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Options configures a baseline simulation beyond the defaults.
type Options struct {
	// Trace, when non-nil, receives the execution spans of the simulated
	// iteration (plan-driven methods only; the closed-form methods have
	// no event timeline to record).
	Trace *trace.Trace
	// Faults, when non-nil, degrades the plan-driven methods' resources
	// with the injected stall/slow/drop windows. Baselines have no
	// reissue path, so drops degrade to stalls — the comparison point
	// for STRONGHOLD's degraded-mode scheduling.
	Faults *fault.Plan
}

// planEnv is the explicit-duration execution environment the baseline
// plans run against: plain FIFO resources for the GPU kernel queue, the
// host-side software loop, the two PCIe directions, the NVMe device and
// the CPU optimizer. Every op is issued by its DurNS; bytes and flops
// on the ops are documentation (and validator input), not physics.
type planEnv struct {
	eng    *sim.Engine
	queues []*sim.Resource // plan queue index → resource (0 gpu, 1 host)
	h2d    *sim.Resource
	d2h    *sim.Resource
	nvme   *sim.Resource
	cpuOpt *sim.Resource
	tr     *trace.Trace
	err    error
}

func newPlanEnv(eng *sim.Engine, queues int, tr *trace.Trace) *planEnv {
	e := &planEnv{
		eng:    eng,
		h2d:    sim.NewResource(eng, "pcie-h2d"),
		d2h:    sim.NewResource(eng, "pcie-d2h"),
		nvme:   sim.NewResource(eng, "nvme"),
		cpuOpt: sim.NewResource(eng, "cpu-opt"),
		tr:     tr,
	}
	names := []string{"gpu", "host"}
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("q%d", q)
		if q < len(names) {
			name = names[q]
		}
		e.queues = append(e.queues, sim.NewResource(eng, name))
	}
	return e
}

// degrade installs the injector's stretch hooks on every resource a
// baseline plan can occupy.
func (e *planEnv) degrade(inj *fault.Injector) {
	e.h2d.SetStretch(inj.StretchAll(fault.H2D))
	e.d2h.SetStretch(inj.StretchAll(fault.D2H))
	e.nvme.SetStretch(inj.StretchAll(fault.NVMe))
	e.cpuOpt.SetStretch(inj.StretchAll(fault.CPU))
}

func (e *planEnv) Issue(op *plan.Op, deps []*sim.Signal) *sim.Signal {
	switch op.Kind {
	case plan.ComputeFP, plan.ComputeBP:
		return e.timed(e.queues[op.Queue], op, trace.KindCompute, deps)
	case plan.OptStep:
		if op.GPU {
			return e.timed(e.queues[op.Queue], op, trace.KindOptimize, deps)
		}
		return e.timed(e.cpuOpt, op, trace.KindOptimize, deps)
	case plan.Prefetch:
		return e.timed(e.h2d, op, trace.KindH2D, deps)
	case plan.Offload:
		return e.timed(e.d2h, op, trace.KindD2H, deps)
	case plan.NVMeStage:
		return e.timed(e.nvme, op, trace.KindNVMe, deps)
	case plan.BufAcquire, plan.BufRelease, plan.Join:
		// No device pool here: buffer ops and joins are pure ordering
		// points, but executing them keeps the validated plan and the
		// executed schedule the same object.
		return sim.Join(e.eng, deps)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("baselines: op kind %s unsupported by the explicit-duration environment", op.Kind)
		}
		return sim.FiredSignal(e.eng)
	}
}

func (e *planEnv) timed(r *sim.Resource, op *plan.Op, kind trace.Kind, deps []*sim.Signal) *sim.Signal {
	name, layer := op.Name, op.Layer
	return r.SubmitAfter(deps, op.DurNS, func(start, end sim.Time) {
		if e.tr != nil {
			e.tr.Add(trace.Span{Track: r.Name(), Name: name, Kind: kind,
				Layer: layer, Start: start, End: end})
		}
	})
}

// Resolve: baseline plans are steady-state single iterations with no
// cross-iteration dependencies; every external fact already holds.
func (e *planEnv) Resolve(plan.ExtDep) *sim.Signal { return nil }

// Export: nothing consumes cross-iteration facts here.
func (e *planEnv) Export(*plan.Op, *sim.Signal) {}

// runPlanned validates and executes one baseline plan, filling res with
// the simulated timing, overlap and diagnostics.
func runPlanned(it *plan.Iteration, opts Options, res *perf.IterationResult) {
	if err := plan.Validate(it); err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return
	}
	var inj *fault.Injector
	if !opts.Faults.Empty() {
		var err error
		if inj, err = fault.NewInjector(opts.Faults); err != nil {
			res.OOM, res.OOMDetail = true, err.Error()
			return
		}
	}
	eng := sim.NewEngine()
	tr := opts.Trace
	if tr == nil {
		tr = trace.New() // overlap is computed from the trace either way
	}
	env := newPlanEnv(eng, it.Queues, tr)
	if inj != nil {
		env.degrade(inj)
	}
	plan.Execute(it, env)
	eng.Run()
	if env.err != nil {
		res.OOM, res.OOMDetail = true, env.err.Error()
		return
	}
	res.IterTime = eng.Now()
	res.Steps = eng.Steps()
	res.PlanOps = uint64(len(it.Ops))
	res.Overlap = tr.OverlapFraction(
		[]trace.Kind{trace.KindCompute},
		[]trace.Kind{trace.KindH2D, trace.KindD2H, trace.KindNVMe})
}
