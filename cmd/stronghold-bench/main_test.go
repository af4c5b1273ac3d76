package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"stronghold/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCompareRegression drives two synthetic BENCH files through
// -compare end to end: the 10% throughput drop in "alpha" must trip the
// 5% gate (exit 2) and the diff output must match the golden byte for
// byte.
func TestCompareRegression(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", "-threshold", "0.05", "testdata/old.json", "testdata/new.json"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	golden := filepath.Join("testdata", "compare_golden.txt")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("compare output drifted from golden:\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
}

// TestCompareThresholdMath checks the gate's arithmetic: alpha dropped
// exactly 10%, so an 11% threshold passes and a 9.99% threshold fails.
func TestCompareThresholdMath(t *testing.T) {
	for _, tc := range []struct {
		threshold string
		want      int
	}{
		{"0.11", 0},
		{"0.1", 0}, // boundary: delta == -threshold is not "past" it
		{"0.0999", 2},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", "-threshold", tc.threshold, "testdata/old.json", "testdata/new.json"}, &stdout, &stderr)
		if code != tc.want {
			t.Errorf("threshold %s: exit code = %d, want %d\n%s", tc.threshold, code, tc.want, stdout.String())
		}
	}
}

// TestCompareErrors covers the error exits: wrong arity, missing file,
// wrong schema — each with exit 1 AND a message that tells the user
// what to do, not just what failed.
func TestCompareErrors(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-compare", "testdata/old.json"}, &out, &out); code != 1 {
		t.Errorf("one-file compare: exit %d, want 1", code)
	}

	out.Reset()
	if code := run([]string{"-compare", "testdata/old.json", "testdata/missing.json"}, &out, &out); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	for _, want := range []string{"testdata/missing.json", "does not exist", "stronghold-bench -rev"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing-file message lacks %q: %s", want, out.String())
		}
	}

	out.Reset()
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","rev":"x","scenarios":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", bad, "testdata/new.json"}, &out, &out); code != 1 {
		t.Errorf("schema mismatch: exit %d, want 1", code)
	}
	for _, want := range []string{"schema mismatch", `"other/v9"`, `"stronghold-bench/v1"`, "regenerate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("schema-mismatch message lacks %q: %s", want, out.String())
		}
	}

	// Malformed JSON is neither missing nor mismatched — it still must
	// exit 1 with the offending path.
	out.Reset()
	garbled := filepath.Join(t.TempDir(), "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", garbled, "testdata/new.json"}, &out, &out); code != 1 {
		t.Errorf("garbled file: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "not a stronghold-bench document") {
		t.Errorf("garbled-file message unclear: %s", out.String())
	}
}

// TestListAndUnknownScenario covers -list and the unknown -only error.
func TestListAndUnknownScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	names := strings.Fields(stdout.String())
	if len(names) != len(bench.Suite()) {
		t.Errorf("-list printed %d names, suite has %d", len(names), len(bench.Suite()))
	}
	var out bytes.Buffer
	if code := run([]string{"-only", "no-such-scenario", "-out", "-"}, &out, &out); code != 1 {
		t.Errorf("unknown -only: exit %d, want 1", code)
	}
}

// TestBenchScenarioDeterministic runs the cheapest real scenario twice
// through the full CLI path and requires byte-identical documents — the
// BENCH file is a determinism artifact, not a measurement.
func TestBenchScenarioDeterministic(t *testing.T) {
	emit := func() []byte {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-only", "stronghold-1p7b", "-rev", "t", "-out", "-"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("bench run exit %d: %s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatal("repeated bench runs produced different BENCH documents")
	}
	var doc bench.Doc
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	s, ok := doc.Scenarios["stronghold-1p7b"]
	if !ok {
		t.Fatal("scenario missing from document")
	}
	if s.Throughput <= 0 || s.TFLOPS <= 0 || s.MetricSamples == 0 || s.H2DP50NS == 0 {
		t.Errorf("scenario fields not populated: %+v", s)
	}
	if s.H2DP99NS < s.H2DP50NS {
		t.Errorf("p99 %d < p50 %d", s.H2DP99NS, s.H2DP50NS)
	}
}

// TestParallelSweepByteIdentical is the harness-level differential
// gate: the full suite run one scenario after another and with
// -workers, scenarios running concurrently, must emit byte-identical
// BENCH documents.
func TestParallelSweepByteIdentical(t *testing.T) {
	emit := func(extra ...string) []byte {
		args := append([]string{"-rev", "t", "-out", "-"}, extra...)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("bench run %v exit %d: %s", extra, code, stderr.String())
		}
		return stdout.Bytes()
	}
	serial := emit()
	for _, w := range []string{"2", "8"} {
		par := emit("-workers", w)
		if !bytes.Equal(serial, par) {
			t.Fatalf("-workers %s sweep produced a different BENCH document than the serial sweep", w)
		}
	}
}

// TestTimingSweepWallClock runs the suite with -timing and checks the
// wall-clock section end to end: both sweeps measured, identical
// scenario bytes (enforced inside run), and on a multi-core machine
// the scenario-concurrent sweep at least keeps pace with the serial
// one. On a single-CPU machine there is nothing to win — goroutines
// just take turns — so the inequality is skipped there.
func TestTimingSweepWallClock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rev", "t", "-out", "-", "-timing", "-workers", "8"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("timing run exit %d: %s", code, stderr.String())
	}
	var doc bench.Doc
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Timing == nil {
		t.Fatal("-timing did not populate the timing section")
	}
	if doc.Timing.SerialWallNS <= 0 || doc.Timing.ParallelWallNS <= 0 {
		t.Fatalf("wall-clocks not measured: %+v", doc.Timing)
	}
	if doc.Timing.Workers != 8 || doc.Timing.CPUs != runtime.NumCPU() {
		t.Fatalf("timing metadata wrong: %+v", doc.Timing)
	}
	if len(doc.Scenarios) != len(bench.Suite()) {
		t.Fatalf("timing run covered %d scenarios, want %d", len(doc.Scenarios), len(bench.Suite()))
	}
	if runtime.NumCPU() == 1 {
		t.Skip("single CPU: parallel sweep cannot beat serial; wall-clock gate runs on multi-core CI")
	}
	if doc.Timing.ParallelWallNS > doc.Timing.SerialWallNS {
		t.Errorf("parallel sweep slower than serial on %d CPUs: %+v", runtime.NumCPU(), doc.Timing)
	}
}
