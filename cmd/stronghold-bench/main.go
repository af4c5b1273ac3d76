// Command stronghold-bench runs the simulator's canonical benchmark
// suite (internal/bench) and writes one BENCH_<rev>.json document:
// per-scenario throughput, achieved TFLOPS, compute/transfer overlap
// fraction, end-of-run resource utilization, and transfer-time
// percentiles from the metrics collector. Because the simulator is
// deterministic, the file is byte-reproducible for a given revision,
// which makes it diffable in review and comparable across commits:
//
//	stronghold-bench -rev abc123 -out BENCH_abc123.json
//	stronghold-bench -workers 8                      # concurrent scenarios, same bytes
//	stronghold-bench -workers 8 -timing -rev abc123  # adds wall-clock section
//	stronghold-bench -compare -threshold 0.05 BENCH_old.json BENCH_new.json
//
// -workers sets how many scenarios run at once, capped at GOMAXPROCS;
// every scenario simulates on its own serial engine, so the results
// are byte-identical to the one-after-another sweep. -timing times the
// serial sweep against the scenario-concurrent sweep (best of several
// trials over a few copies of the suite, checking that both produce the
// same results) and appends the wall-clocks; it is the only flag that
// makes the document machine-dependent.
//
// -compare exits 2 when any scenario's throughput regressed by more
// than the threshold fraction, making it usable as a CI gate.
//
// This package deliberately imports no simulation code: all engine
// work lives in internal/bench, so the wall-clock reads and the
// scenario goroutines here stay outside the simulation-scoped
// determinism rules (stronghold-vet's wallclock/enginepure scopes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stronghold/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sweep runs the cases and returns their results in case order.
// workers <= 1 runs them one after another; workers > 1 runs them
// concurrently on min(workers, GOMAXPROCS) goroutines, each pulling the
// next case in suite order. Every scenario simulates on its own serial
// engine, so the results do not depend on goroutine scheduling.
func sweep(cases []bench.Case, workers int) []bench.Scenario {
	results := make([]bench.Scenario, len(cases))
	if workers <= 1 {
		for i, c := range cases {
			results[i] = c.Run()
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, runtime.GOMAXPROCS(0), len(cases)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				results[i] = cases[i].Run()
			}
		}()
	}
	wg.Wait()
	return results
}

// timingReps is how many copies of the suite each timed sweep runs. One
// pass is bounded by its longest scenario; repeating the suite gives the
// concurrent sweep enough independent work to keep every CPU busy.
const timingReps = 2

// timingTrials is how many times each sweep is timed; the fastest trial
// of each is recorded. Trials alternate which sweep goes first, so a
// warm-up or GC debt from the previous sweep favours neither side.
const timingTrials = 15

// timeSweeps measures the serial and the scenario-concurrent sweep of
// timingReps copies of cases, best of timingTrials each. Every result of
// the concurrent sweeps must equal want, the serial reference results
// in case order; a mismatch is an error.
func timeSweeps(cases []bench.Case, want []bench.Scenario, workers int) (serial, concurrent time.Duration, err error) {
	var suite []bench.Case
	for range timingReps {
		suite = append(suite, cases...)
	}
	timed := func(w int) time.Duration {
		runtime.GC()
		start := time.Now()
		got := sweep(suite, w)
		wall := time.Since(start)
		for i, s := range got {
			if s != want[i%len(want)] && err == nil {
				err = fmt.Errorf("scenario %q diverged between serial and concurrent sweeps", suite[i].Name)
			}
		}
		return wall
	}
	serial, concurrent = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for trial := range timingTrials {
		if trial%2 == 0 {
			serial = min(serial, timed(1))
			concurrent = min(concurrent, timed(workers))
		} else {
			concurrent = min(concurrent, timed(workers))
			serial = min(serial, timed(1))
		}
	}
	return serial, concurrent, err
}

// run is main without the process exit, for the e2e test harness.
// Exit codes: 0 success, 1 usage/IO error, 2 regression past threshold.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stronghold-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rev := fs.String("rev", "dev", "revision label recorded in the document")
	out := fs.String("out", "", "output path (default BENCH_<rev>.json; - for stdout)")
	only := fs.String("only", "", "run only the named scenario")
	list := fs.Bool("list", false, "list scenario names and exit")
	workers := fs.Int("workers", 0, "run up to this many scenarios at once, capped at GOMAXPROCS (<=1 = one after another)")
	timing := fs.Bool("timing", false, "time the suite run serially and with scenarios concurrent, recording both wall-clocks (machine-dependent)")
	compare := fs.Bool("compare", false, "compare two BENCH files: -compare old.json new.json")
	threshold := fs.Float64("threshold", 0.05, "with -compare: max tolerated fractional throughput drop")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	cases := bench.Suite()
	if *list {
		for _, c := range cases {
			fmt.Fprintln(stdout, c.Name)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "stronghold-bench: -compare needs exactly two BENCH files")
			return 1
		}
		return bench.Compare(fs.Arg(0), fs.Arg(1), *threshold, stdout, stderr)
	}
	if *only != "" {
		i := slices.IndexFunc(cases, func(c bench.Case) bool { return c.Name == *only })
		if i < 0 {
			fmt.Fprintf(stderr, "stronghold-bench: unknown scenario %q\n", *only)
			return 1
		}
		cases = cases[i : i+1]
	}
	doc := bench.Doc{Schema: bench.Schema, Rev: *rev, Scenarios: make(map[string]bench.Scenario)}
	var results []bench.Scenario
	if *timing {
		w := *workers
		if w <= 1 {
			w = runtime.NumCPU()
		}
		// The reference sweep is serial and untimed: it yields the
		// document's scenarios and the allocation count, and warms the
		// process up for the timed trials.
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		results = sweep(cases, 1)
		runtime.ReadMemStats(&msAfter)
		serialWall, concurrentWall, err := timeSweeps(cases, results, w)
		if err != nil {
			fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
			return 1
		}
		var steps uint64
		for _, s := range results {
			steps += s.Steps
		}
		allocs := msAfter.Mallocs - msBefore.Mallocs
		perStep := 0.0
		if steps > 0 {
			perStep = float64(allocs) / float64(steps)
		}
		doc.Timing = &bench.Timing{
			SerialWallNS:        serialWall.Nanoseconds(),
			ParallelWallNS:      concurrentWall.Nanoseconds(),
			Workers:             w,
			CPUs:                runtime.NumCPU(),
			SerialAllocs:        allocs,
			SerialAllocsPerStep: perStep,
		}
	} else {
		results = sweep(cases, *workers)
	}
	for i, c := range cases {
		doc.Scenarios[c.Name] = results[i]
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *rev + ".json"
	}
	var w io.Writer = stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
		return 1
	}
	if path != "-" {
		fmt.Fprintf(stdout, "wrote %s (%d scenarios)\n", path, len(doc.Scenarios))
	}
	return 0
}
