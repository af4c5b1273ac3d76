package sim

import (
	"fmt"
	"math"
)

// SharedProcessor models a capacity-shared execution engine — the GPU's
// SM array. Concurrently active tasks share the total capacity with a
// per-task rate cap (a kernel launched from one CUDA stream with a small
// batch cannot saturate every SM; its cap encodes the fraction of the
// GPU it can use). This reproduces the paper's multi-stream observation
// (§IV-A, Fig. 11): a second stream speeds training up until the caps
// sum past the machine's capacity.
//
// Rates are assigned by water-filling: spare capacity from capped tasks
// is redistributed to the rest.
type SharedProcessor struct {
	eng        *Engine
	name       string
	capacity   float64 // work units per second (e.g. FLOP/s)
	active     []*spTask
	finished   []*spTask // completion scratch, used as a stack by nested reschedules
	uncapped   []*spTask // waterFill scratch
	lastUpdate Time
	wakeSeq    uint64  // admission seq of the current completion event; 0 = none
	usedInt    float64 // ∫ rate dt, for utilization accounting
	tasks      uint64
}

// spTask is one task on the processor: its completion signal, its
// dependency countdown, its launch latency and its progress in a
// single record that is its own waiter — on each dependency while
// pending, then as the launch-latency event.
type spTask struct {
	Signal
	sp        *SharedProcessor
	pending   int32 // unfired dependencies
	hold      bool  // arriving launch: defer the fire until the arrival returns
	latency   Time  // launch latency still to pay before arrival; -1 = none
	remaining float64
	maxRate   float64
	rate      float64
	started   Time
	onDone    func(start, end Time)
}

// NewSharedProcessor builds a processor with the given capacity in work
// units per second.
func NewSharedProcessor(eng *Engine, name string, capacity float64) *SharedProcessor {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s needs positive capacity", name))
	}
	return &SharedProcessor{eng: eng, name: name, capacity: capacity}
}

// Capacity returns the processor's total rate.
func (sp *SharedProcessor) Capacity() float64 { return sp.capacity }

// ActiveTasks returns the number of currently running tasks.
func (sp *SharedProcessor) ActiveTasks() int { return len(sp.active) }

// Submit starts a task of the given amount of work once deps fire. The
// task's consumption is capped at maxRate work/s (values above the
// processor capacity are clamped). Returns a Signal fired at task
// completion.
//
//vet:hotpath
func (sp *SharedProcessor) Submit(work, maxRate float64, deps []*Signal, onDone func(start, end Time)) *Signal {
	t := sp.newTask(work, maxRate, onDone, -1)
	if t.pending = int32(arm(deps, t)); t.pending == 0 {
		sp.arrive(t)
	}
	return &t.Signal
}

// Launch is Submit for a kernel issued to an in-order queue: the task
// waits for after (the queue's previous task) and for deps, then pays a
// fixed launch latency in virtual time, then joins the processor. The
// latency is always a scheduled event, even when zero, as a kernel
// launch is. Returns a Signal fired at task completion.
//
//vet:hotpath
func (sp *SharedProcessor) Launch(after *Signal, deps []*Signal, latency Time, work, maxRate float64, onDone func(start, end Time)) *Signal {
	if latency < 0 {
		panic(fmt.Sprintf("sim: shared processor %s got negative launch latency %d", sp.name, latency))
	}
	t := sp.newTask(work, maxRate, onDone, latency)
	t.pending = int32(arm(deps, t))
	if after != nil && !after.fired {
		after.wait(t)
		t.pending++
	}
	if t.pending == 0 {
		sp.arrive(t)
	}
	return &t.Signal
}

func (sp *SharedProcessor) newTask(work, maxRate float64, onDone func(start, end Time), latency Time) *spTask {
	if work < 0 {
		panic(fmt.Sprintf("sim: shared processor %s got negative work", sp.name))
	}
	if maxRate <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s got non-positive maxRate", sp.name))
	}
	return &spTask{Signal: Signal{eng: sp.eng}, sp: sp, latency: latency,
		remaining: work, maxRate: math.Min(maxRate, sp.capacity), onDone: onDone}
}

func (t *spTask) wake() {
	if t.pending > 0 {
		if t.pending--; t.pending > 0 {
			return
		}
	}
	t.sp.arrive(t)
}

// arrive runs when a task's dependencies have resolved and again when
// its launch latency has elapsed: the first pays the latency, the
// last adds the task to the active set.
func (sp *SharedProcessor) arrive(t *spTask) {
	if t.latency >= 0 {
		d := t.latency
		t.latency = -1
		t.hold = true
		sp.eng.at(sp.eng.Now()+d, t)
		return
	}
	sp.advance()
	t.started = sp.eng.Now()
	sp.active = append(sp.active, t)
	sp.tasks++
	launched := t.hold
	sp.reschedule()
	// A launched kernel's signal fires no earlier than its arrival
	// returns: one that drains within its own arrival (zero work) is
	// completed by reschedule, which leaves the fire to here, after the
	// processor has booked its next wake.
	if launched && !t.hold {
		t.Fire()
	}
	t.hold = false
}

// advance drains elapsed virtual time into remaining-work accounting.
func (sp *SharedProcessor) advance() {
	now := sp.eng.Now()
	elapsed := float64(now-sp.lastUpdate) / 1e9
	if elapsed > 0 {
		for _, t := range sp.active {
			t.remaining -= t.rate * elapsed
			sp.usedInt += t.rate * elapsed
		}
	}
	sp.lastUpdate = now
}

// reschedule recomputes rate allocation, completes finished tasks, and
// schedules the next completion event.
//
// It is re-entrant: a completion's onDone or signal waiters may submit
// new work to this processor synchronously, which calls reschedule
// again before the outer call has finished firing. The drained tasks
// are collected onto the finished scratch as a stack frame
// [base, len): a nested call pushes and pops its own frame above the
// outer one, so the outer loop — which re-reads the slice on every
// step, as a nested push may move it — still fires exactly its own
// tasks. The rates and the next completion are computed after every
// completion has fired, over the final active set, nested arrivals
// included.
//
//vet:hotpath
func (sp *SharedProcessor) reschedule() {
	// Complete tasks whose work has drained (within a rate-relative
	// epsilon to absorb float rounding).
	const eps = 1e-9
	base := len(sp.finished)
	kept := sp.active[:0]
	for _, t := range sp.active {
		if t.remaining <= t.maxRate*eps {
			sp.finished = append(sp.finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(sp.active[len(kept):])
	sp.active = kept
	now := sp.eng.Now()
	for i := base; i < len(sp.finished); i++ {
		t := sp.finished[i]
		if o := sp.eng.obs; o != nil {
			o.ProcTask(sp.name, t.started, now, len(sp.active))
		}
		if t.onDone != nil {
			t.onDone(t.started, now)
		}
		if t.hold {
			t.hold = false // the arrival fires it
		} else {
			t.Fire()
		}
	}
	clear(sp.finished[base:])
	sp.finished = sp.finished[:base]
	sp.waterFill()
	next := sp.nextCompletion()
	if next < 0 {
		sp.wakeSeq = 0
		return
	}
	sp.eng.at(now+next, sp)
	sp.wakeSeq = sp.eng.seq
}

// wake is the processor's completion event. Only the most recently
// scheduled one is current; an arrival or completion in between
// superseded the rest, which still run (and count as engine steps) but
// do nothing.
func (sp *SharedProcessor) wake() {
	if sp.eng.running != sp.wakeSeq {
		return
	}
	sp.advance()
	sp.reschedule()
}

// waterFill distributes capacity across active tasks subject to their
// caps.
func (sp *SharedProcessor) waterFill() {
	remaining := sp.capacity
	scratch := append(sp.uncapped[:0], sp.active...)
	uncapped := scratch
	for _, t := range sp.active {
		t.rate = 0
	}
	for len(uncapped) > 0 {
		share := remaining / float64(len(uncapped))
		progressed := false
		n := 0 // filter in place: the still-uncapped tasks move to the front
		for _, t := range uncapped {
			if t.maxRate <= share {
				t.rate = t.maxRate
				remaining -= t.maxRate
				progressed = true
			} else {
				uncapped[n] = t
				n++
			}
		}
		uncapped = uncapped[:n]
		if !progressed {
			for _, t := range uncapped {
				t.rate = share
			}
			break
		}
	}
	clear(scratch)
	sp.uncapped = scratch[:0]
}

// nextCompletion returns the delay until the earliest task finishes, or
// -1 when no task is active.
func (sp *SharedProcessor) nextCompletion() Time {
	best := Time(-1)
	for _, t := range sp.active {
		if t.rate <= 0 {
			continue
		}
		dt := Time(math.Ceil(t.remaining / t.rate * 1e9))
		if dt < 1 {
			dt = 1
		}
		if best < 0 || dt < best {
			best = dt
		}
	}
	return best
}

// Utilization returns the time-averaged fraction of capacity consumed.
func (sp *SharedProcessor) Utilization() float64 {
	if sp.eng.Now() == 0 {
		return 0
	}
	return sp.usedInt / (sp.capacity * float64(sp.eng.Now()) / 1e9)
}

// Tasks returns the number of tasks ever submitted.
func (sp *SharedProcessor) Tasks() uint64 { return sp.tasks }
