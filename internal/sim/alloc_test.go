package sim

import "testing"

// nop is a package-level function so taking its value allocates
// nothing — unlike a closure literal, which would charge the measured
// loop with its own construction.
func nop() {}

// allocRuns is the AllocsPerRun count of the completion-path pins.
// AllocsPerRun calls the function once more to warm up, so fixtures
// that consume fresh signals are built for allocRuns+1 calls.
const allocRuns = 200

// freshSignals returns n unfired signals per call of an AllocsPerRun
// loop, built up front so the measured calls allocate none of them.
func freshSignals(eng *Engine, n int) [][]*Signal {
	sets := make([][]*Signal, allocRuns+1)
	for i := range sets {
		sets[i] = make([]*Signal, n)
		for j := range sets[i] {
			sets[i][j] = NewSignal(eng)
		}
	}
	return sets
}

// TestZeroAllocHotPaths is the dynamic half of the HOTPATH.md contract:
// on the steady state (heap capacity warmed), scheduling and running an
// event allocates nothing, waiting on a signal allocates nothing, and
// every join or submission allocates exactly its one record. The
// static half is stronghold-vet's hotalloc rule over the same
// functions.
func TestZeroAllocHotPaths(t *testing.T) {
	e := NewEngine()
	// Warm the heap's backing array — the one budgeted allocation.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, nop)
		e.Schedule(2, nop)
		e.Schedule(1, nop)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+run hot path allocates %.1f times per event batch, want 0", allocs)
	}

	deadline := e.Now()
	allocs = testing.AllocsPerRun(1000, func() {
		deadline += 10
		e.Schedule(1, nop)
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("schedule+rununtil hot path allocates %.1f times per event batch, want 0", allocs)
	}

	pins := []struct {
		name string
		want float64
		fn   func(sigs []*Signal)
	}{
		// The first waiter is stored inline, and a func value converts
		// to a waiter without boxing.
		{"wait then fire, one waiter", 0, func(s []*Signal) {
			s[0].Wait(nop)
			s[0].Fire()
		}},
		{"wait on a fired signal", 0, func(s []*Signal) {
			s[0].Fire()
			s[0].Wait(nop)
		}},
		// One join record however many dependencies are pending.
		{"fan-in-4 WaitAll", 1, func(s []*Signal) {
			WaitAll(e, s, nop)
			for _, d := range s {
				d.Fire()
			}
		}},
		{"WaitAll with every dependency fired", 0, func(s []*Signal) {
			for _, d := range s {
				d.Fire()
			}
			WaitAll(e, s, nop)
		}},
		// Join's gate is the returned signal.
		{"fan-in-4 Join", 1, func(s []*Signal) {
			Join(e, s).Wait(nop)
			for _, d := range s {
				d.Fire()
			}
		}},
	}
	for _, p := range pins {
		sets := freshSignals(e, 4)
		call := 0
		allocs := testing.AllocsPerRun(allocRuns, func() {
			p.fn(sets[call])
			call++
		})
		if allocs != p.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", p.name, allocs, p.want)
		}
	}

	// Submissions: one task record each; the completion event and the
	// processor's wake are the records themselves.
	r := NewResource(e, "r")
	sp := NewSharedProcessor(e, "sp", 1e9)
	dep := [1]*Signal{}
	submit := func() {
		dep[0] = r.SubmitAfter(dep[:1], 10, nil)
		sp.Submit(1e3, 1e9, dep[:1], nil)
		e.Run()
	}
	for i := 0; i < 8; i++ {
		submit() // warm the heap and the processor's scratch
	}
	if allocs := testing.AllocsPerRun(allocRuns, submit); allocs != 2 {
		t.Errorf("SubmitAfter → processor Submit allocates %.1f times per pair, want 2 (one record each)", allocs)
	}
}

// BenchmarkEngine is the CI alloc-gate's smoke benchmark: one
// schedule+dispatch round trip per iteration on a warm engine. The
// committed baseline pins allocs/op at zero; a regression fails the
// gate.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, nop)
		e.Run()
	}
}

// BenchmarkWaitAll measures one fan-in-4 join over pending signals:
// register, then fire the four dependencies. The signals are built in
// batches with the timer stopped, so allocs/op counts the join alone;
// the committed baseline (testdata/waitall_allocs_baseline.txt) pins
// it at one.
func BenchmarkWaitAll(b *testing.B) {
	e := NewEngine()
	const batch = 1024
	sigs := make([]*Signal, 4*batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % batch
		if k == 0 {
			b.StopTimer()
			for j := range sigs {
				sigs[j] = NewSignal(e)
			}
			b.StartTimer()
		}
		deps := sigs[4*k : 4*k+4]
		WaitAll(e, deps, nop)
		for _, d := range deps {
			d.Fire()
		}
	}
}
