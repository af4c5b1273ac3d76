package loadgen

import (
	"errors"
	"testing"
	"time"
)

// A handler that stalls once charges the stall to the requests queued
// behind it: they are timed from their due time, not from when they
// were finally sent.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const (
		rate  = 1000.0 // one request per millisecond
		n     = 200
		stall = 40 * time.Millisecond
		at    = 20
	)
	_, s := Run(rate, n, 0, 1, func(i int) error {
		if i == at {
			time.Sleep(stall)
		}
		return nil
	})
	if len(s) != n {
		t.Fatalf("got %d samples, want %d", len(s), n)
	}
	if got := s[at].Latency(); got < stall {
		t.Errorf("stalled request latency %v, want at least %v", got, stall)
	}
	next := s[at+1]
	if next.Lag() < stall-5*time.Millisecond {
		t.Errorf("request behind the stall was sent %v late, want about %v", next.Lag(), stall)
	}
	if next.Latency() < stall-5*time.Millisecond {
		t.Errorf("request behind the stall has latency %v, want the queueing charged (about %v)", next.Latency(), stall)
	}
	if service := next.Done - next.Sent; service > 5*time.Millisecond {
		t.Errorf("request behind the stall took %v to serve; the test handler is instant", service)
	}
	// Queued requests drain: well after the stall, latency is back to
	// the handler's own (near zero) service time.
	if got := s[n-1].Latency(); got > 5*time.Millisecond {
		t.Errorf("last request latency %v: backlog did not drain", got)
	}
	if Growing(s, 5*time.Millisecond) {
		t.Errorf("a single stall that drains was reported as a growing backlog")
	}
	for i, x := range s {
		if x.Index != i || x.Due != time.Duration(i)*time.Millisecond {
			t.Fatalf("sample %d: index %d due %v, want due order", i, x.Index, x.Due)
		}
	}
}

// A handler slower than the offered rate makes the backlog grow.
func TestOverloadGrowsBacklog(t *testing.T) {
	_, s := Run(2000, 200, 0, 1, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if !Growing(s, 10*time.Millisecond) {
		t.Errorf("handler at half the offered rate: backlog not reported growing (first lag %v, last lag %v)",
			s[0].Lag(), s[len(s)-1].Lag())
	}
}

func TestErrorsAndStreamOffset(t *testing.T) {
	boom := errors.New("boom")
	_, s := Run(5000, 50, 100, 2, func(i int) error {
		if i%10 == 0 {
			return boom
		}
		return nil
	})
	failed := 0
	for k, x := range s {
		if x.Index != 100+k {
			t.Fatalf("sample %d has stream index %d, want %d", k, x.Index, 100+k)
		}
		if x.Err != nil {
			failed++
		}
	}
	if failed != 5 {
		t.Errorf("got %d failed samples, want 5", failed)
	}
}
