// Command hostbench is the repository's host-time benchmark. It times
// what users of the simulator wait for — simulation sweeps, and
// stronghold-serve answering capacity-planning queries — in wall-clock
// time, and, in a separate traced run, the time spent in each module.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash hostbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stronghold"
	"stronghold/hostbench/gen"
)

// procStart approximates process start for the first set-up's timing.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state and tally.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	tr       *tracer // nil in untraced runs

	attempted, failed int
	metrics           map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// share returns a fraction of the run's measuring time.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// checkFailed records a failed whole-run output check.
func (r *run) checkFailed(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "hostbench: check failed:", fmt.Sprintf(format, args...))
	r.failed++
}

// count tallies operations and reports each failure once on stderr.
func (r *run) count(attempted int, errs []error) {
	r.attempted += attempted
	for _, err := range errs {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintln(os.Stderr, "hostbench: failed:", err)
		}
	}
}

// setups runs set-up n times and returns the median seconds from each
// start (process start, the first time) to ready.
func setups(n int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

//go:embed expected/sim-sweep.txt
var expectedFile string

// digest fingerprints every field of a simulation result.
func digest(r stronghold.SimResult) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:8])
}

// universeID fingerprints the sweep's config universe, so results
// recorded for another universe are refused.
func universeID(u []gen.Config) string {
	h := sha256.New()
	for _, c := range u {
		fmt.Fprintln(h, c.Key)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// loadExpected maps each universe key to its recorded result digest.
func loadExpected() (map[string]string, error) {
	u := gen.Universe()
	var digests []string
	var id string
	for _, line := range strings.Split(expectedFile, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "universe "):
			id = strings.TrimPrefix(line, "universe ")
		default:
			digests = append(digests, line)
		}
	}
	if want := universeID(u); id != want || len(digests) != len(u) {
		return nil, fmt.Errorf("expected results were recorded for universe %s (%d configs), the sweep draws from %s (%d configs); re-record with -record",
			id, len(digests), want, len(u))
	}
	out := make(map[string]string, len(u))
	for i, c := range u {
		out[c.Key] = digests[i]
	}
	return out, nil
}

// record simulates the whole universe and writes the expected-results
// file.
func record(path string) error {
	u := gen.Universe()
	var b strings.Builder
	b.WriteString("# Expected sim-sweep results: the first 8 bytes of SHA-256 over each\n")
	b.WriteString("# stronghold.SimResult (%+v), one line per config in gen.Universe order.\n")
	b.WriteString("# Regenerate from hostbench/: go run . -record expected/sim-sweep.txt\n")
	fmt.Fprintf(&b, "universe %s\n", universeID(u))
	for _, c := range u {
		res, err := stronghold.Simulate(c.Sim)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Key, err)
		}
		b.WriteString(digest(res) + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

var workloads = map[string]func(*run) error{
	"sim-sweep":  runSweep,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

func main() {
	workload := flag.String("workload", "", "sim-sweep, serve-hot or serve-cold")
	seed := flag.Uint64("seed", gen.HeldOutSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time per run")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	rec := flag.String("record", "", "record the sim-sweep expected results to this file and exit")
	flag.Parse()
	if *rec != "" {
		if err := record(*rec); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: hostbench --workload sim-sweep|serve-hot|serve-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), metrics: map[string]metric{}}
	if *traced == 1 {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", r.workload, r.seed)
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench: writing spans:", err)
			os.Exit(1)
		}
	} else {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "hostbench: no operations were attempted")
		os.Exit(1)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "hostbench: metric %s has no value (%v)\n", name, m.Value)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
