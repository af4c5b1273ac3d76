package gen

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

func sweepRounds(seed uint64, n int) [][]Config {
	s := NewSweep(seed)
	out := make([][]Config, n)
	for i := range out {
		out[i] = s.Round()
	}
	return out
}

func coldStream(seed uint64, n int) []Request {
	c := NewCold(seed)
	c.Ensure(n)
	out := make([]Request, n)
	for i := range out {
		out[i] = c.Request(i)
	}
	return out
}

func hotStream(seed uint64, n int) []Request {
	h := NewHot(seed)
	out := append([]Request{}, h.Keys...)
	for i := 0; i < n; i++ {
		out = append(out, h.Request(i))
	}
	return out
}

// The same seed gives an identical stream; another seed a different one.
func TestStreamsAreSeeded(t *testing.T) {
	const a, b = 1, 2
	streams := []struct {
		name string
		gen  func(seed uint64) any
	}{
		{"sweep", func(s uint64) any { return sweepRounds(s, 3) }},
		{"hot", func(s uint64) any { return hotStream(s, 1000) }},
		{"cold", func(s uint64) any { return coldStream(s, 300) }},
	}
	for _, st := range streams {
		if !reflect.DeepEqual(st.gen(a), st.gen(a)) {
			t.Errorf("%s: same seed gave different streams", st.name)
		}
		if reflect.DeepEqual(st.gen(a), st.gen(b)) {
			t.Errorf("%s: seeds %d and %d gave the same stream", st.name, a, b)
		}
	}
}

// Every config a round can draw is in the universe, so it has a
// recorded expected result, and each round covers every stratum once.
func TestRoundsDrawFromUniverse(t *testing.T) {
	known := make(map[string]bool)
	for _, c := range Universe() {
		if known[c.Key] {
			t.Fatalf("duplicate universe key %s", c.Key)
		}
		known[c.Key] = true
	}
	strata := len(cells())
	for _, round := range sweepRounds(HeldOutSeed, 5) {
		if len(round) != strata {
			t.Fatalf("round has %d configs, want one per stratum (%d)", len(round), strata)
		}
		faulted := 0
		for _, c := range round {
			if !known[c.Key] {
				t.Errorf("drawn config %s is not in the universe", c.Key)
			}
			if c.Sim.Faults != "" {
				faulted++
			}
		}
		if faulted == 0 {
			t.Errorf("round has no faulted configs")
		}
	}
}

// Hot spellings of one key canonicalize to it; the hot set fits well
// within the server's cache; cold keys never repeat.
func TestKeySets(t *testing.T) {
	h := NewHot(7)
	if len(h.Keys) >= 256/4 {
		t.Errorf("hot key set has %d keys; want well under the 256-entry cache", len(h.Keys))
	}
	distinct := make(map[string]bool)
	for _, k := range h.Keys {
		distinct[k.Hash] = true
	}
	if len(distinct) != len(h.Keys) {
		t.Errorf("hot keys are not distinct: %d hashes for %d keys", len(distinct), len(h.Keys))
	}
	spellings := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		r := h.Request(i)
		if r.Get() {
			continue
		}
		if r.Hash != h.Keys[r.Key].Hash {
			t.Fatalf("request %d: hash differs from its key's", i)
		}
		spellings[string(r.Body)] = true
	}
	if len(spellings) < 4*len(h.Keys) {
		t.Errorf("only %d distinct spellings of %d keys", len(spellings), len(h.Keys))
	}
	seen := make(map[string]bool)
	for _, r := range coldStream(7, 2000) {
		if seen[r.Hash] {
			t.Fatalf("cold stream repeats key %s", r.Hash)
		}
		seen[r.Hash] = true
	}
}

// Every generated request has an answer: the simulator accepts it and
// returns 200.
func TestRequestsAreAnswered(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ts := httptest.NewServer(serve.New(backend.Sim{}, serve.Options{}))
	defer ts.Close()
	var reqs []Request
	for seed := uint64(1); seed <= 3; seed++ {
		reqs = append(reqs, NewHot(seed).Keys...)
		reqs = append(reqs, coldStream(seed, 150)...)
	}
	for _, r := range reqs {
		resp, err := http.Post(ts.URL+r.Path, "application/json", bytes.NewReader(r.Body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", r.Path, r.Body, resp.StatusCode, body)
		}
	}
}
