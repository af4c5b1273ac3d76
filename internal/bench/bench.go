// Package bench is the simulator's canonical benchmark suite and the
// BENCH_<rev>.json document model. It owns everything that touches the
// simulation engines — building models, running scenarios, distilling
// results — so the stronghold-bench command above it stays free of
// simulation imports and may legally measure wall-clock time and run
// scenarios on goroutines (the simulation-scoped determinism rules bar
// both inside this package).
//
// Scenario results are pure functions of the revision: the simulator
// is deterministic and each scenario builds its own engine, so the
// suite may be executed in any order, serially or concurrently, and
// produce the same bytes.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// Schema identifies the BENCH document layout; bump on breaking change.
const Schema = "stronghold-bench/v1"

// Doc is one benchmark run: the whole BENCH_<rev>.json document.
type Doc struct {
	Schema    string              `json:"schema"`
	Rev       string              `json:"rev"`
	Scenarios map[string]Scenario `json:"scenarios"`
	// Timing, when present, records the harness's wall-clock sweep
	// measurement (stronghold-bench -timing). It is the one
	// machine-dependent section of the document — scenario results are
	// byte-reproducible, wall-clocks are not — so the default document
	// omits it.
	Timing *Timing `json:"timing,omitempty"`
}

// Timing is the wall-clock section: the suite swept serially and with
// scenarios running concurrently, every scenario on the serial engine.
// SerialWallNS and ParallelWallNS are the fastest of several trials of
// each sweep over a few copies of the suite; ParallelWallNS is the
// scenario-concurrent sweep (the field keeps its name so older BENCH
// files still parse). Workers is the -workers value; at most
// GOMAXPROCS scenarios (by default CPUs) are in flight at once.
type Timing struct {
	SerialWallNS   int64 `json:"serial_wall_ns"`
	ParallelWallNS int64 `json:"parallel_wall_ns"`
	Workers        int   `json:"workers"`
	CPUs           int   `json:"cpus"`
	// SerialAllocs and SerialAllocsPerStep record the heap allocation
	// count of the serial sweep (runtime.MemStats.Mallocs delta) and its
	// ratio to executed simulation events — the sweep-level cross-check
	// of the HOTPATH.md zero-alloc discipline. Like the wall-clocks they
	// are machine-dependent (GC pacing, map growth), but stable enough
	// that an unbudgeted per-event allocation creeping into a hot path
	// shows up as an order-of-magnitude jump.
	SerialAllocs        uint64  `json:"serial_allocs"`
	SerialAllocsPerStep float64 `json:"serial_allocs_per_step"`
}

// Scenario is one benchmark scenario's result set.
type Scenario struct {
	IterTimeNS    int64   `json:"iter_time_ns"`
	Throughput    float64 `json:"throughput_samples_per_s"`
	TFLOPS        float64 `json:"tflops"`
	Overlap       float64 `json:"overlap"`
	UtilCompute   float64 `json:"util_compute"`
	UtilH2D       float64 `json:"util_h2d"`
	UtilD2H       float64 `json:"util_d2h"`
	UtilCPU       float64 `json:"util_cpu"`
	UtilNVMe      float64 `json:"util_nvme"`
	H2DP50NS      int64   `json:"h2d_p50_ns"`
	H2DP99NS      int64   `json:"h2d_p99_ns"`
	Steps         uint64  `json:"steps"`
	MetricSamples uint64  `json:"metric_samples"`
}

// Case is one entry of the suite: a name plus a runner producing the
// scenario result.
type Case struct {
	Name string
	Run  func() Scenario
}

// iters is the simulated iteration count per scenario: enough for the
// steady state the final-iteration timing reads.
const iters = 3

// strongholdScenario runs the core engine with a metrics collector and
// distills the scenario result.
func strongholdScenario(cfg modelcfg.Config, feat core.Features) Scenario {
	m := perf.NewModel(cfg, hw.V100Platform())
	e := core.NewEngine(m)
	e.Feat = feat
	mc := metrics.New()
	e.Metrics = mc
	tr := trace.New()
	res := e.Run(iters, tr)
	s := scenarioFrom(res, m)
	if p50, ok := mc.Quantile(metrics.FamTransferNS, "pcie.h2d", 0.5); ok {
		s.H2DP50NS = p50
	}
	if p99, ok := mc.Quantile(metrics.FamTransferNS, "pcie.h2d", 0.99); ok {
		s.H2DP99NS = p99
	}
	return s
}

// baselineScenario runs one of the comparison engines (no collector:
// the baseline executor has no metrics hooks; plan-driven rows still
// report real overlap and step counts).
func baselineScenario(method modelcfg.Method, cfg modelcfg.Config) Scenario {
	m := perf.NewModel(cfg, hw.V100Platform())
	return scenarioFrom(baselines.Run(method, m), m)
}

func scenarioFrom(res perf.IterationResult, m perf.Model) Scenario {
	return Scenario{
		IterTimeNS:    int64(res.IterTime),
		Throughput:    res.Throughput(m.Cfg.BatchSize),
		TFLOPS:        res.TFLOPS(m.TotalFlops()),
		Overlap:       res.Overlap,
		UtilCompute:   res.Util.Compute,
		UtilH2D:       res.Util.H2D,
		UtilD2H:       res.Util.D2H,
		UtilCPU:       res.Util.CPU,
		UtilNVMe:      res.Util.NVMe,
		Steps:         res.Steps,
		MetricSamples: res.MetricSamples,
	}
}

// Suite returns the benchmark scenarios in their canonical order.
func Suite() []Case {
	cfg1p7 := modelcfg.Config1p7B()
	cfg4b := modelcfg.ConfigForSize(4, 2560, 1)
	return []Case{
		{"stronghold-1p7b", func() Scenario {
			return strongholdScenario(cfg1p7, core.DefaultFeatures())
		}},
		{"stronghold-1p7b-multistream", func() Scenario {
			feat := core.DefaultFeatures()
			feat.Streams = 2
			return strongholdScenario(cfg1p7, feat)
		}},
		{"stronghold-4b", func() Scenario {
			return strongholdScenario(cfg4b, core.DefaultFeatures())
		}},
		{"stronghold-4b-nvme", func() Scenario {
			feat := core.DefaultFeatures()
			feat.UseNVMe = true
			return strongholdScenario(cfg4b, feat)
		}},
		{"baseline-no-opt-1p7b", func() Scenario {
			return strongholdScenario(cfg1p7, core.Features{Streams: 1})
		}},
		{"l2l-1p7b", func() Scenario {
			return baselineScenario(modelcfg.L2L, cfg1p7)
		}},
		{"zero-offload-1p7b", func() Scenario {
			return baselineScenario(modelcfg.ZeROOffload, cfg1p7)
		}},
		{"zero-infinity-1p7b", func() Scenario {
			return baselineScenario(modelcfg.ZeROInfinity, cfg1p7)
		}},
		{"interleaved-opt-1p7b", func() Scenario {
			return baselineScenario(modelcfg.InterleavedOpt, cfg1p7)
		}},
	}
}

// Load reads and schema-checks one BENCH file.
func Load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("benchmark file %s does not exist — generate it with: stronghold-bench -rev <rev> -out %s", path, path)
		}
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s is not a stronghold-bench document: %w", path, err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("%s: schema mismatch: file says %q, this build expects %q — regenerate it with this stronghold-bench build", path, d.Schema, Schema)
	}
	return &d, nil
}

// Compare diffs two BENCH documents scenario by scenario, writing the
// report to stdout. A scenario regresses when its throughput dropped by
// more than threshold (fractional); scenarios present on only one side
// are reported but do not gate. Exit-style return: 0 clean, 1 load
// error, 2 regression.
func Compare(oldPath, newPath string, threshold float64, stdout, stderr io.Writer) int {
	oldDoc, err := Load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
		return 1
	}
	newDoc, err := Load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
		return 1
	}
	names := make(map[string]bool)
	for n := range oldDoc.Scenarios {
		names[n] = true
	}
	for n := range newDoc.Scenarios {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(stdout, "comparing %s (%s) -> %s (%s), threshold %.1f%%\n",
		oldPath, oldDoc.Rev, newPath, newDoc.Rev, threshold*100)
	regressions := 0
	for _, n := range sorted {
		o, hasOld := oldDoc.Scenarios[n]
		nw, hasNew := newDoc.Scenarios[n]
		switch {
		case !hasOld:
			fmt.Fprintf(stdout, "  %-28s new scenario (%.2f samples/s)\n", n, nw.Throughput)
		case !hasNew:
			fmt.Fprintf(stdout, "  %-28s removed\n", n)
		default:
			delta := 0.0
			if o.Throughput > 0 {
				delta = nw.Throughput/o.Throughput - 1
			}
			mark := "ok"
			if delta < -threshold {
				mark = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  %-28s %9.2f -> %9.2f samples/s (%+.2f%%) %s\n",
				n, o.Throughput, nw.Throughput, delta*100, mark)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d scenario(s) regressed past %.1f%%\n", regressions, threshold*100)
		return 2
	}
	fmt.Fprintln(stdout, "no regressions")
	return 0
}
