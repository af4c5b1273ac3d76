package hw

import (
	"testing"

	"stronghold/internal/sim"
)

// launchCopyAllocs is the HOTPATH.md budget of one launch → copy pair:
// the kernel's processor task record and the copy's resource task
// record. The completion events, the processor's wake and the stream
// tail are those records; nothing else allocates.
const launchCopyAllocs = 2

// launchCopyChain returns one step of a kernel → pinned H2D copy chain
// on a stream, each waiting on the one before, run to completion. The
// dependency list is a reused one-element buffer, so the step allocates
// only what Launch and CopyH2D do.
func launchCopyChain(t testing.TB) func() {
	eng := sim.NewEngine()
	m, err := NewMachine(eng, V100Platform(), GB)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewStream("chain")
	dep := [1]*sim.Signal{sim.FiredSignal(eng)}
	return func() {
		dep[0] = st.Launch(1e9, 0.5, dep[:], nil)
		dep[0] = m.CopyH2D(1<<20, true, dep[:])
		eng.Run()
		if !dep[0].Fired() {
			t.Fatal("launch → copy chain did not drain")
		}
	}
}

// TestLaunchCopyAllocs is the dynamic half of internal/hw/HOTPATH.md:
// on a warm machine (event heap and processor scratch grown) a launch
// → copy step allocates exactly its budget.
func TestLaunchCopyAllocs(t *testing.T) {
	step := launchCopyChain(t)
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs > launchCopyAllocs {
		t.Fatalf("launch → copy step allocates %.1f times, budget %d", allocs, launchCopyAllocs)
	}
}

// BenchmarkLaunchChain is the alloc-gate benchmark for the machine
// layer: one launch → copy step per iteration. The committed baseline
// (internal/sim/testdata/launch_allocs_baseline.txt) pins allocs/op.
func BenchmarkLaunchChain(b *testing.B) {
	step := launchCopyChain(b)
	for i := 0; i < 8; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
