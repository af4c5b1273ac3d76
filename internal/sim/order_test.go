package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refSignal is a verbatim copy of the closure-based completion
// machinery Signal replaced: a slice of callbacks per signal, and a
// WaitAll that shares a captured counter through one closure per
// pending dependency. It is the ordering oracle for the intrusive
// waiters: same firing order, same engine events.
type refSignal struct {
	eng     *Engine
	fired   bool
	at      Time
	waiters []func()
}

func (s *refSignal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.at = s.eng.Now()
	for _, w := range s.waiters {
		w()
	}
	s.waiters = nil
}

func (s *refSignal) Wait(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}

func refWaitAll(deps []*refSignal, fn func()) {
	remaining := 0
	for _, d := range deps {
		if d != nil && !d.fired {
			remaining++
		}
	}
	if remaining == 0 {
		fn()
		return
	}
	for _, d := range deps {
		if d == nil || d.fired {
			continue
		}
		d.Wait(func() {
			remaining--
			if remaining == 0 {
				fn()
			}
		})
	}
}

// signals abstracts the two implementations over integer handles; -1
// is a nil dependency.
type signals interface {
	add(fired bool) int
	fire(h int)
	fired(h int) bool
	wait(h int, fn func())
	waitAll(hs []int, fn func())
	join(hs []int) int
}

type realSignals struct {
	eng  *Engine
	sigs []*Signal
}

func (r *realSignals) add(fired bool) int {
	s := NewSignal(r.eng)
	if fired {
		s = FiredSignal(r.eng)
	}
	r.sigs = append(r.sigs, s)
	return len(r.sigs) - 1
}
func (r *realSignals) fire(h int)            { r.sigs[h].Fire() }
func (r *realSignals) fired(h int) bool      { return r.sigs[h].Fired() }
func (r *realSignals) wait(h int, fn func()) { r.sigs[h].Wait(fn) }
func (r *realSignals) deps(hs []int) []*Signal {
	out := make([]*Signal, len(hs))
	for i, h := range hs {
		if h >= 0 {
			out[i] = r.sigs[h]
		}
	}
	return out
}
func (r *realSignals) waitAll(hs []int, fn func()) { WaitAll(r.eng, r.deps(hs), fn) }
func (r *realSignals) join(hs []int) int {
	r.sigs = append(r.sigs, Join(r.eng, r.deps(hs)))
	return len(r.sigs) - 1
}

type refSignals struct {
	eng  *Engine
	sigs []*refSignal
}

func (r *refSignals) add(fired bool) int {
	s := &refSignal{eng: r.eng}
	if fired {
		s.Fire()
	}
	r.sigs = append(r.sigs, s)
	return len(r.sigs) - 1
}
func (r *refSignals) fire(h int)            { r.sigs[h].Fire() }
func (r *refSignals) fired(h int) bool      { return r.sigs[h].fired }
func (r *refSignals) wait(h int, fn func()) { r.sigs[h].Wait(fn) }
func (r *refSignals) deps(hs []int) []*refSignal {
	out := make([]*refSignal, len(hs))
	for i, h := range hs {
		if h >= 0 {
			out[i] = r.sigs[h]
		}
	}
	return out
}
func (r *refSignals) waitAll(hs []int, fn func()) { refWaitAll(r.deps(hs), fn) }

// join is the closure-era spelling every caller used: a fresh signal
// fired by WaitAll.
func (r *refSignals) join(hs []int) int {
	out := r.add(false)
	refWaitAll(r.deps(hs), r.sigs[out].Fire)
	return out
}

// runDAG drives one seeded random program against sigs: root signals
// fired by scheduled events; interior signals each owned by one
// WaitAll or Join over earlier signals (with nil entries, duplicates
// and already-fired deps), fired at once or after a scheduled delay;
// and extra Wait callbacks and WaitAll joins, some registered before
// the run and some from inside callbacks while it runs. Every callback
// logs itself; the returned log is the waiter invocation order.
func runDAG(seed int64, mk func(*Engine) signals) ([]string, uint64, Time) {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	s := mk(eng)
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("t=%d ", eng.Now())+fmt.Sprintf(format, args...))
	}
	pickDeps := func(upto int) []int {
		hs := make([]int, rng.Intn(5))
		for i := range hs {
			switch r := rng.Intn(10); {
			case r == 0 || upto == 0:
				hs[i] = -1 // nil dependency
			case r == 1 && i > 0:
				hs[i] = hs[i-1] // the same signal listed twice
			default:
				hs[i] = rng.Intn(upto)
			}
		}
		return hs
	}
	const n = 60
	for i := 0; i < n; i++ {
		switch {
		case i < 6 || rng.Intn(8) == 0:
			h := s.add(rng.Intn(4) == 0) // some roots start fired
			if !s.fired(h) {
				at := Time(rng.Intn(50))
				eng.Schedule(at, func() { note("root %d", h); s.fire(h) })
			}
		case rng.Intn(3) == 0:
			h := s.join(pickDeps(i))
			id := i
			s.wait(h, func() { note("join %d", id) })
		default:
			h := s.add(false)
			deps := pickDeps(i)
			delay := Time(rng.Intn(3)) * 5
			s.waitAll(deps, func() {
				note("waitall %d -> %d", len(deps), h)
				if delay == 0 {
					s.fire(h)
					return
				}
				eng.Schedule(delay, func() { note("delayed %d", h); s.fire(h) })
			})
		}
		// Extra listeners on random existing signals, some registering
		// further listeners when they run (by then deps may have fired).
		for k := rng.Intn(3); k > 0; k-- {
			target, id := rng.Intn(i+1), fmt.Sprintf("w%d.%d", i, k)
			nested := pickDeps(i + 1)
			s.wait(target, func() {
				note("%s", id)
				if len(nested) > 0 {
					s.waitAll(nested, func() { note("%s nested", id) })
				}
			})
		}
	}
	end := eng.Run()
	return log, eng.Steps(), end
}

// TestWaiterOrderMatchesClosureReference runs seeded random signal DAGs
// through the intrusive waiters and through the closure-based reference
// and requires the same waiter invocation order, the same engine step
// count and the same end time.
func TestWaiterOrderMatchesClosureReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		gotLog, gotSteps, gotEnd := runDAG(seed, func(e *Engine) signals { return &realSignals{eng: e} })
		wantLog, wantSteps, wantEnd := runDAG(seed, func(e *Engine) signals { return &refSignals{eng: e} })
		if len(wantLog) < 20 {
			t.Fatalf("seed %d: program too small to test ordering (%d callbacks)", seed, len(wantLog))
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range gotLog {
				if i >= len(wantLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: waiter order diverges at %d: got %q, reference %q", seed, i, gotLog[i:], wantLog[min(i, len(wantLog)):])
				}
			}
			t.Fatalf("seed %d: got %d callbacks, reference %d", seed, len(gotLog), len(wantLog))
		}
		if gotSteps != wantSteps || gotEnd != wantEnd {
			t.Fatalf("seed %d: steps %d end %d, reference steps %d end %d", seed, gotSteps, gotEnd, wantSteps, wantEnd)
		}
	}
}

// TestWaitAllEdgeCases pins the corner cases of the dependency API.
func TestWaitAllEdgeCases(t *testing.T) {
	e := NewEngine()
	count := func(deps []*Signal) *int {
		n := new(int)
		WaitAll(e, deps, func() { *n++ })
		return n
	}

	if n := count(nil); *n != 1 {
		t.Errorf("nil deps: fn ran %d times, want 1 (immediately)", *n)
	}
	if n := count([]*Signal{nil, nil}); *n != 1 {
		t.Errorf("all-nil deps: fn ran %d times, want 1", *n)
	}
	fired := FiredSignal(e)
	if n := count([]*Signal{fired, nil, fired}); *n != 1 {
		t.Errorf("already-fired deps: fn ran %d times, want 1", *n)
	}

	// The same pending signal listed twice is waited on twice: one fire
	// releases both entries and fn runs exactly once.
	a, b := NewSignal(e), NewSignal(e)
	n := count([]*Signal{a, nil, a, fired, b})
	a.Fire()
	if *n != 0 {
		t.Fatal("WaitAll ran before every dependency fired")
	}
	b.Fire()
	if *n != 1 {
		t.Errorf("duplicate dep: fn ran %d times, want 1", *n)
	}
	if g := Join(e, []*Signal{fired, nil}); !g.Fired() {
		t.Error("Join over fired and nil deps must return a fired signal")
	}

	// Wait on a fired signal runs at once; waiters run in registration
	// order, past the inline first one.
	var order []int
	s := NewSignal(e)
	for i := 0; i < 4; i++ {
		s.Wait(func() { order = append(order, i) })
	}
	s.Fire()
	s.Wait(func() { order = append(order, 99) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 99}) {
		t.Errorf("waiter order %v, want [0 1 2 3 99]", order)
	}

	defer func() {
		if recover() == nil {
			t.Error("a second Fire must panic")
		}
	}()
	s.Fire()
}
