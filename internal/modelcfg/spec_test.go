package modelcfg

import (
	"testing"
)

// TestConfigSpecCanonicalIdempotent pins the property the serve cache
// key depends on: canonicalization is a fixed point, and Layers wins
// over SizeBillions.
func TestConfigSpecCanonicalIdempotent(t *testing.T) {
	specs := []ConfigSpec{
		{},
		{SizeBillions: 4},
		{Layers: 20},
		{Layers: 20, SizeBillions: 99},
		{SizeBillions: 1.7, Hidden: 4096, BatchSize: 2, ModelParallel: 8},
	}
	for _, s := range specs {
		c1 := s.Canonical()
		if c2 := c1.Canonical(); c1 != c2 {
			t.Errorf("Canonical not idempotent: %+v -> %+v -> %+v", s, c1, c2)
		}
	}
	c := ConfigSpec{Layers: 20, SizeBillions: 99}.Canonical()
	if c.SizeBillions != 0 || c.Layers != 20 {
		t.Errorf("Layers-wins rule not applied: %+v", c)
	}
	if c.Hidden != 2560 || c.BatchSize != 4 || c.ModelParallel != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestConfigSpecResolve checks Resolve against the direct constructors
// and its error paths.
func TestConfigSpecResolve(t *testing.T) {
	got, err := ConfigSpec{Layers: 20, BatchSize: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := NewConfig(20, 2560, 16)
	want.BatchSize = 2
	if got != want {
		t.Errorf("Resolve(layers=20) = %+v, want %+v", got, want)
	}

	bySize, err := ConfigSpec{SizeBillions: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if ref := ConfigForSize(4, 2560, 1); bySize != ref {
		t.Errorf("Resolve(size=4) = %+v, want %+v", bySize, ref)
	}

	if _, err := (ConfigSpec{}).Resolve(); err == nil {
		t.Error("empty spec resolved without error")
	}
	if _, err := (ConfigSpec{Layers: -1, SizeBillions: 2}).Resolve(); err == nil {
		t.Error("negative layers resolved without error")
	}
}

// TestConfigSpecCeilings: the largest legitimate configs resolve, and
// anything past a ceiling errors before it can be built.
func TestConfigSpecCeilings(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec ConfigSpec
		ok   bool
	}{
		{"largest trainable size", ConfigSpec{SizeBillions: 1099.5}, true},
		{"widest table I row", ConfigSpec{Layers: 31, Hidden: 13312, ModelParallel: 8}, true},
		{"deepest table I row", ConfigSpec{Layers: 1676, Hidden: 5120, ModelParallel: 8}, true},
		{"largest batch in use", ConfigSpec{Layers: 20, BatchSize: 64}, true},
		{"layers at ceiling", ConfigSpec{Layers: MaxLayers}, true},
		{"hidden at ceiling", ConfigSpec{Layers: 1, Hidden: MaxHidden}, true},
		{"batch at ceiling", ConfigSpec{Layers: 1, BatchSize: MaxBatchSize}, true},
		{"billion-billion size", ConfigSpec{SizeBillions: 1e9}, false},
		{"int64-overflowing size", ConfigSpec{SizeBillions: 1e300}, false},
		{"layers past ceiling", ConfigSpec{Layers: MaxLayers + 1}, false},
		{"hidden past ceiling", ConfigSpec{Layers: 1, Hidden: MaxHidden + 16}, false},
		{"batch past ceiling", ConfigSpec{Layers: 1, BatchSize: MaxBatchSize + 1}, false},
	} {
		cfg, err := tc.spec.Resolve()
		if tc.ok && err != nil {
			t.Errorf("%s: %+v did not resolve: %v", tc.name, tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: %+v resolved to %+v, want a ceiling error", tc.name, tc.spec, cfg)
		}
	}
}

// TestMethodSummaries pins the wire form of the registry: one row per
// method in display order, engine names rendered, decision variables
// carried through.
func TestMethodSummaries(t *testing.T) {
	rows := MethodSummaries()
	if len(rows) != len(methods) {
		t.Fatalf("%d summaries, registry has %d rows", len(rows), len(methods))
	}
	for i, row := range rows {
		if row.Key != methods[i].Key {
			t.Errorf("row %d key %q, want %q (display order must hold)", i, row.Key, methods[i].Key)
		}
	}
	byKey := make(map[string]MethodSummary)
	for _, r := range rows {
		byKey[r.Key] = r
	}
	sh := byKey["stronghold"]
	if sh.Engine != "core" || !sh.PlanDriven || !sh.Decisions.Window || !sh.Decisions.OptPlacement {
		t.Errorf("stronghold summary wrong: %+v", sh)
	}
	if z := byKey["zero-3"]; z.Engine != "cluster" || !z.Distributed {
		t.Errorf("zero-3 summary wrong: %+v", z)
	}
	if m := byKey["megatron-lm"]; m.Engine != "baseline" || m.PlanDriven {
		t.Errorf("megatron summary wrong: %+v", m)
	}
}
