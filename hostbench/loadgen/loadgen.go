// Package loadgen is the benchmark's open-loop load generator. Requests
// are due on a fixed schedule whether or not earlier ones have
// completed; each is timed from its due time, so a stall is charged to
// every request queued behind it, and the generator reports how late it
// sent each one.
package loadgen

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one request's timing, as offsets from the start of the run.
type Sample struct {
	Index           int // request index in the caller's stream
	Due, Sent, Done time.Duration
	Err             error
}

// Latency is the time from when the request was due to its completion.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the request.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// Run sends n requests at rate per second, starting at stream index
// first, from the given number of worker goroutines (each one request
// in flight at a time). Once every request has completed it returns the
// time the samples are offsets from, and the samples in due order.
func Run(rate float64, n, first, workers int, send func(i int) error) (time.Time, []Sample) {
	samples := make([]Sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Sleep in the kernel on a locked thread with fine timer
			// slack: the runtime's own timers round sleeps up to a
			// millisecond on Linux, which would swamp sub-millisecond
			// latencies.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			fineTimerSlack()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := time.Duration(k) * interval
				sleepUntil(start.Add(due))
				s := Sample{Index: first + k, Due: due, Sent: time.Since(start)}
				s.Err = send(first + k)
				s.Done = time.Since(start)
				samples[k] = s
			}
		}()
	}
	wg.Wait()
	return start, samples
}

// fineTimerSlack sets the calling thread's timer slack to 1µs (the
// Linux default is 50µs). The benchmark targets Linux.
func fineTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep (EINTR) just loops and re-checks.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// Growing reports whether the backlog grew during the run: the median
// lag of the last quarter of the samples exceeds that of the first
// quarter by more than slack.
func Growing(samples []Sample, slack time.Duration) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	return medianLag(samples[len(samples)-q:]) > medianLag(samples[:q])+slack
}

func medianLag(s []Sample) time.Duration {
	lags := make([]time.Duration, len(s))
	for i, x := range s {
		lags[i] = x.Lag()
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return lags[len(lags)/2]
}
