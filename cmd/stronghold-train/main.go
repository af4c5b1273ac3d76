// Command stronghold-train is the equivalent of the artifact's
// examples/run.sh: simulate one training setup and print its
// throughput, or train a real small model functionally.
//
// Simulation (paper-scale, default):
//
//	stronghold-train -m stronghold -l 50 -hs 2560 -b 4 -w 0
//	stronghold-train -m all -l 20 -hs 2560 -b 4
//
// Functional mode (real math, small scale):
//
//	stronghold-train -functional -l 4 -hs 32 -b 2 -w 2 -iters 20
//
// Degraded-mode study (deterministic fault injection, plan-driven
// methods only):
//
//	stronghold-train -m stronghold -l 50 -faults "h2d:slow(at=0s,dur=1s,every=1s,factor=0.15)"
//	stronghold-train -m zero-offload -l 20 -faults "..."
//
// Method names come from the shared registry: -m accepts a canonical
// key, an alias, a comma list, or "all"; -m list prints every method.
// -coopt lets the solver co-optimize the window size together with a
// fractional GPU/CPU optimizer placement (STRONGHOLD methods).
//
// Flags mirror the artifact's parameters: -l layers, -hs hidden size,
// -b batch size, -w window size (0 = analytic, STRONGHOLD only).
package main

import (
	"flag"
	"fmt"
	"os"

	"stronghold"
	"stronghold/internal/modelcfg"
)

func main() {
	method := flag.String("m", "stronghold", `method name, comma list, or "all" (the single-GPU comparison set); "list" prints the registry`)
	layers := flag.Int("l", 16, "number of transformer layers")
	hidden := flag.Int("hs", 2048, "hidden size")
	batch := flag.Int("b", 4, "batch size per GPU")
	window := flag.Int("w", 0, "offloading window size (0 = analytic; STRONGHOLD only)")
	platform := flag.String("platform", "v100", "platform: v100 | a10-cluster")
	functional := flag.Bool("functional", false, "train a real small model instead of simulating")
	iters := flag.Int("iters", 10, "functional-mode training iterations")
	coopt := flag.Bool("coopt", false, "co-optimize window size and fractional optimizer placement (STRONGHOLD methods only)")
	faults := flag.String("faults", "", `fault plan, e.g. "seed=7;h2d:slow(at=0s,dur=1s,every=1s,factor=0.2)" (plan-driven methods only)`)
	noAdapt := flag.Bool("no-adapt", false, "freeze the working window under faults (disable adaptive re-solve)")
	flag.Parse()

	if *method == "list" {
		fmt.Print(modelcfg.MethodList())
		return
	}

	if *functional {
		runFunctional(*layers, *hidden, *batch, *window, *iters)
		return
	}

	plat := stronghold.V100
	if *platform == "a10-cluster" {
		plat = stronghold.A10Cluster
	} else if *platform != "v100" {
		fatalf("unknown platform %q", *platform)
	}

	methods, err := modelcfg.ParseMethods(*method)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%-22s %8s %12s %10s %8s %9s\n", "method", "model", "iter(s)", "samples/s", "TFLOPS", "gpu-peak")
	for _, m := range methods {
		res, err := stronghold.Simulate(stronghold.SimConfig{
			Layers: *layers, Hidden: *hidden, BatchSize: *batch,
			Platform: plat, Method: m, Window: *window, CoOpt: *coopt,
			Faults: *faults, DisableAdapt: *noAdapt,
		})
		if err != nil {
			fatalf("%s: %v", modelcfg.MethodKey(m), err)
		}
		if res.OOM {
			fmt.Printf("%-22s %7.1fB %12s\n", m, res.ModelBillions, "OOM")
			continue
		}
		fmt.Printf("%-22s %7.1fB %12.2f %10.3f %8.2f %7.1fGB\n",
			m, res.ModelBillions, res.IterSeconds, res.SamplesPerSec, res.TFLOPS, res.GPUPeakGB)
		if res.OptGPUFrac > 0 {
			fmt.Printf("%-22s co-optimized placement: %.1f%% of each offloaded layer's optimizer on GPU\n",
				"", res.OptGPUFrac*100)
		}
		if *faults != "" {
			fmt.Printf("%-22s degraded mode: %d retries, %d deadline misses, %d re-solves, final window %d\n",
				"", res.Retries, res.DeadlineMisses, res.WindowResolves, res.FinalWindow)
		}
	}
}

func runFunctional(layers, hidden, batch, window, iters int) {
	if window == 0 {
		window = max(1, layers/2)
	}
	tr, err := stronghold.NewTrainer(stronghold.TrainerConfig{
		Vocab: 128, SeqLen: 32, Hidden: hidden, Heads: 4, Layers: layers,
		Window: window, OptimizerWorkers: 4, BatchSize: batch,
	})
	if err != nil {
		fatalf("functional trainer: %v", err)
	}
	defer tr.Close()
	fmt.Printf("training %d-parameter GPT (window %d/%d blocks)\n", tr.NumParams(), window, layers)
	for i := 0; i < iters; i++ {
		loss := tr.Step()
		fmt.Printf("iter %3d  loss %.4f\n", i, loss)
	}
	f, e := tr.Transfers()
	fmt.Printf("window transfers: %d fetches, %d evictions; peak residency %d blocks\n",
		f, e, tr.PeakResidentBlocks())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stronghold-train: "+format+"\n", args...)
	os.Exit(1)
}
