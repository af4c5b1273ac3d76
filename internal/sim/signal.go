package sim

// A waiter is what a Signal wakes when it fires and what the engine
// runs when an event falls due: a plain callback, a WaitAll join, a
// Join gate, or one of the Resource and SharedProcessor task records,
// which count their own dependencies down. Records implement it
// directly, so waiting on a signal or scheduling a completion stores a
// pointer the record already is — no closure is built per wait.
type waiter interface{ wake() }

// callback adapts a plain func to a waiter. A func value is a single
// pointer word, so converting it to the interface allocates nothing.
type callback func()

func (f callback) wake() { f() }

// Signal is a one-shot completion event, the simulated analogue of a
// CUDA event: work records a signal when it finishes, and other work
// waits on it before starting.
//
// Waiters are kept intrusively, the first few inline. A plan DAG is
// issued whole before it runs, so nearly every signal is still pending
// when its waiters register, and in a STRONGHOLD run most signals have
// two to four of them (the next op on the same queue, cross-queue
// dependents, the iteration join): inline slots for four keep all but
// the rare wider fan-out off the heap. Firing wakes waiters in
// registration order.
type Signal struct {
	eng    *Engine
	fired  bool
	n      uint8 // inline slots in use
	at     Time
	inline [inlineWaiters]waiter
	more   *[]waiter // waiters past the inline slots
}

// inlineWaiters is the fan-out a signal holds without allocating.
const inlineWaiters = 4

// NewSignal returns an unfired signal bound to eng.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// FiredSignal returns a signal that is already fired at the current
// time — useful as a neutral dependency.
func FiredSignal(eng *Engine) *Signal {
	return &Signal{eng: eng, fired: true, at: eng.Now()}
}

// Fire marks the signal complete at the current virtual time and wakes
// all waiters. Firing twice panics: completion is a one-shot fact.
//
//vet:hotpath
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.at = s.eng.Now()
	// A fired signal takes no new waiters (wait runs them at once), so
	// the lists cannot grow while they are walked.
	for i := range s.n {
		w := s.inline[i]
		s.inline[i] = nil
		w.wake()
	}
	if more := s.more; more != nil {
		s.more = nil
		for _, w := range *more {
			w.wake()
		}
	}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the time the signal fired; only valid after Fired().
func (s *Signal) FiredAt() Time { return s.at }

// Wait arranges for fn to run once the signal fires (immediately if it
// already has).
//
//vet:hotpath
func (s *Signal) Wait(fn func()) { s.wait(callback(fn)) }

func (s *Signal) wait(w waiter) {
	switch {
	case s.fired:
		w.wake()
	case int(s.n) < inlineWaiters:
		s.inline[s.n] = w
		s.n++
	case s.more == nil:
		s.more = &[]waiter{w}
	default:
		*s.more = append(*s.more, w)
	}
}

// arm registers w on every unfired signal in deps, skipping nil
// entries, and returns how many wakes w will receive. A signal listed
// twice wakes w twice.
func arm(deps []*Signal, w waiter) int {
	n := 0
	for _, d := range deps {
		if d != nil && !d.fired {
			d.wait(w)
			n++
		}
	}
	return n
}

// pendingIn counts the unfired, non-nil signals in deps.
func pendingIn(deps []*Signal) int {
	n := 0
	for _, d := range deps {
		if d != nil && !d.fired {
			n++
		}
	}
	return n
}

// join is WaitAll's countdown: one record however many signals it
// waits on.
type join struct {
	pending int
	fn      func()
}

func (j *join) wake() {
	if j.pending--; j.pending == 0 {
		j.fn()
	}
}

// WaitAll runs fn once every signal in deps has fired. A nil or empty
// dependency list fires immediately. Nil entries are skipped.
//
//vet:hotpath
func WaitAll(eng *Engine, deps []*Signal, fn func()) {
	n := pendingIn(deps)
	if n == 0 {
		fn()
		return
	}
	arm(deps, &join{pending: n, fn: fn})
}

// gate is Join's record: the joined signal and its countdown in one
// allocation.
type gate struct {
	Signal
	pending int
}

func (g *gate) wake() {
	if g.pending--; g.pending == 0 {
		g.Fire()
	}
}

// Join returns a new signal that fires once every signal in deps has
// fired — already fired when none is pending. Nil entries are skipped.
// It is WaitAll(eng, deps, sig.Fire) on a fresh signal, in one
// allocation.
//
//vet:hotpath
func Join(eng *Engine, deps []*Signal) *Signal {
	g := &gate{Signal: Signal{eng: eng}}
	if g.pending = arm(deps, g); g.pending == 0 {
		g.Fire()
	}
	return &g.Signal
}
