// Package gen holds the benchmark's seeded input generators: the
// simulation-config stream of the sim-sweep workload and the request
// streams of the serve-hot and serve-cold workloads. Every stream is a
// pure function of its seed; the program under test sees only the
// generated inputs.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"stronghold"
	"stronghold/internal/modelcfg"
)

// HeldOutSeed is the seed reserved for re-checking a performance claim:
// tune and develop on other seeds, then confirm on this one.
const HeldOutSeed = 9001

// Sizes is the sweep's model-size grid in billions of parameters:
// eight log-uniform points from 1.7B to 40B. The grid is finite so that
// every config the sweep can draw has a recorded expected result.
var Sizes = func() []float64 {
	const n, lo, hi = 8, 1.7, 40.0
	out := make([]float64, n)
	for i := range out {
		v := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		out[i] = math.Round(v*100) / 100
	}
	return out
}()

// Hiddens and Batches are the sweep's model-width and per-GPU batch axes.
var (
	Hiddens = []int{2560, 4096}
	Batches = []int{2, 4}
)

// FaultPlans are the sweep's fault plans: a periodic PCIe slow-down and
// a seeded burst of short stalls.
var FaultPlans = []string{
	"h2d:slow(at=0s,dur=30ms,every=60ms,factor=0.6)",
	"seed=42;h2d:rand(n=6,span=2s,dur=4ms)",
}

// a10Methods is the share of the sweep run on the A10 cluster: the two
// ZeRO data-parallel methods and STRONGHOLD.
var a10Methods = []stronghold.Method{stronghold.ZeRO2, stronghold.ZeRO3, stronghold.Stronghold}

// Config is one sweep entry: the simulation input and its stable key.
type Config struct {
	Key string
	Sim stronghold.SimConfig
}

// Key renders a config's stable identity, used to look up its expected
// result.
func Key(c stronghold.SimConfig) string {
	plat := "v100"
	if c.Platform == stronghold.A10Cluster {
		plat = "a10"
	}
	k := fmt.Sprintf("%s/%s/%gB/h%d/b%d/st%d", plat, modelcfg.MethodKey(c.Method),
		c.SizeBillions, c.Hidden, c.BatchSize, c.Streams)
	if c.Faults != "" {
		k += "/f" + fmt.Sprint(faultIndex(c.Faults))
		if c.DisableAdapt {
			k += "/fixed"
		}
	}
	return k
}

func faultIndex(plan string) int {
	for i, p := range FaultPlans {
		if p == plan {
			return i
		}
	}
	return -1
}

// cell is one stratum of a sweep round: a platform, method, size and
// width. The seed draws everything else.
type cell struct {
	plat   stronghold.Platform
	method stronghold.Method
	size   float64
	hidden int
}

func cells() []cell {
	var out []cell
	add := func(plat stronghold.Platform, m stronghold.Method) {
		for _, s := range Sizes {
			for _, h := range Hiddens {
				out = append(out, cell{plat, m, s, h})
			}
		}
	}
	for _, info := range modelcfg.Methods() {
		add(stronghold.V100, info.M)
	}
	for _, m := range a10Methods {
		add(stronghold.A10Cluster, m)
	}
	return out
}

func (c cell) sim(batch, streams int) stronghold.SimConfig {
	return stronghold.SimConfig{
		SizeBillions: c.size, Hidden: c.hidden, BatchSize: batch,
		Platform: c.plat, Method: c.method, Streams: streams,
	}
}

func streamChoices(m stronghold.Method) []int {
	if modelcfg.Lookup(m).Engine == modelcfg.EngineCore {
		return []int{0, 1, 2} // auto, 1, 2
	}
	return []int{0}
}

func planDriven(m stronghold.Method) bool { return modelcfg.Lookup(m).PlanDriven }

// Universe enumerates every config the sweep can draw, in a fixed order.
func Universe() []Config {
	var out []Config
	for _, c := range cells() {
		for _, b := range Batches {
			for _, st := range streamChoices(c.method) {
				base := c.sim(b, st)
				out = append(out, Config{Key(base), base})
				if !planDriven(c.method) {
					continue
				}
				for _, f := range FaultPlans {
					for _, fixed := range []bool{false, true} {
						fc := base
						fc.Faults, fc.DisableAdapt = f, fixed
						out = append(out, Config{Key(fc), fc})
					}
				}
			}
		}
	}
	return out
}

// Sweep is the sim-sweep config stream. Each round visits every
// stratum — every method on V100 and the A10 share, at every grid size
// and both widths — once, in a seeded order, so all rounds cost about
// the same; the seed draws batch size and stream count per config, and
// puts a fault plan on a quarter of the plan-driven configs, half of
// those with the adaptive window disabled.
type Sweep struct {
	rng   *rand.Rand
	cells []cell
}

// NewSweep returns the stream for a seed.
func NewSweep(seed uint64) *Sweep {
	return &Sweep{rng: rand.New(rand.NewPCG(seed, 0x5eed5)), cells: cells()}
}

// Round draws the next round of configs.
func (s *Sweep) Round() []Config {
	order := s.rng.Perm(len(s.cells))
	// Fault a quarter of the plan-driven cells: take every fourth of
	// them in a seeded order.
	var pd []int
	for _, i := range order {
		if planDriven(s.cells[i].method) {
			pd = append(pd, i)
		}
	}
	faulted := make(map[int]int, len(pd)/4)
	for j, i := range pd {
		if j%4 == 0 {
			faulted[i] = j / 4
		}
	}
	out := make([]Config, 0, len(order))
	for _, i := range order {
		c := s.cells[i]
		choices := streamChoices(c.method)
		sc := c.sim(Batches[s.rng.IntN(len(Batches))], choices[s.rng.IntN(len(choices))])
		if n, ok := faulted[i]; ok {
			sc.Faults = FaultPlans[s.rng.IntN(len(FaultPlans))]
			sc.DisableAdapt = n%2 == 1
		}
		out = append(out, Config{Key(sc), sc})
	}
	return out
}
