package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is a number")
	}
}

// A span's self time is its duration less the union of its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{Name: "root", Parent: -1, Start: 0, End: 100 * time.Millisecond})
	tr.add(span{Name: "a", Parent: root, Start: 10 * time.Millisecond, End: 40 * time.Millisecond})
	tr.add(span{Name: "b", Parent: root, Start: 30 * time.Millisecond, End: 50 * time.Millisecond})  // overlaps a
	tr.add(span{Name: "c", Parent: root, Start: 90 * time.Millisecond, End: 120 * time.Millisecond}) // outlives root
	self := tr.selfTimes()
	if want := 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond; self[root] != want {
		t.Errorf("root self time %v, want %v", self[root], want)
	}
	if self[1] != 30*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", self[1])
	}
}
