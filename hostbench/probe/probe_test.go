package probe

import (
	"reflect"
	"testing"

	"stronghold"
	"stronghold/hostbench/gen"
)

// The phase-by-phase copy of Simulate gives Simulate's results, so the
// traced run times the same work the untraced run does.
func TestRunMatchesSimulate(t *testing.T) {
	u := gen.Universe()
	step := 7
	if testing.Short() {
		step = 61
	}
	for i := 0; i < len(u); i += step {
		c := u[i]
		want, err := stronghold.Simulate(c.Sim)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		p, err := Prepare(c.Sim)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		got, steps := p.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probe run %+v, Simulate %+v", c.Key, got, want)
		}
		if !want.OOM && p.Engine() != Cluster && p.Planned() && steps == 0 {
			t.Errorf("%s: a simulated plan executed no events", c.Key)
		}
	}
}

func TestSyntheticWorkloads(t *testing.T) {
	if steps := EventDAG(100); steps < 200 {
		t.Errorf("event DAG of 100 tasks executed %d events", steps)
	}
	if n := WaitAllChain(100, 4); n != 100 {
		t.Errorf("%d of 100 joins fired", n)
	}
	if n := LaunchChain(50); n != 100 {
		t.Errorf("launch chain issued %d operations, want 100", n)
	}
}
