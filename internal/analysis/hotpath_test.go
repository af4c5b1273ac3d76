package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHotAlloc(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, HotAlloc, "hotalloc_bad")
	runFixture(t, loader, HotAlloc, "hotalloc_clean")
}

// TestHotAllocCross: the discipline follows the static call closure
// across package boundaries — an unmarked helper in another package
// still answers for its allocation when a registered root reaches it.
func TestHotAllocCross(t *testing.T) {
	loader := newTestLoader(t)
	runFixtureSet(t, loader, HotAlloc, "hotcross_bad", "hotcross_helper")
}

func TestBoxing(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, Boxing, "boxing_bad")
	runFixture(t, loader, Boxing, "boxing_clean")
}

func TestDeferLoop(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, DeferLoop, "deferloop_bad")
	runFixture(t, loader, DeferLoop, "deferloop_clean")
}

// TestHotpathRegistryErrors: a broken HOTPATH.md and broken markers
// fail the gate with one diagnostic per defect. Expectations live here
// rather than in `// want` comments because most positions are in the
// registry file itself.
func TestHotpathRegistryErrors(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "hotpathreg_bad")
	runner := &Runner{Analyzers: []*Analyzer{HotAlloc}}
	res := runner.RunPackages([]*Package{pkg})
	wants := []string{
		"hotpath line needs",
		`hotpath target "noqual" is not a <pkg>.<Func>`,
		"hotpath entry hotpathreg_bad.Missing does not resolve to a declared function",
		"registered hot path hotpathreg_bad.Unmarked lacks a //vet:hotpath marker",
		`hot path "hotpathreg_bad.Marked" already registered`,
		`allow site kind "weird" is not in the taxonomy`,
		"allow entry hotpathreg_bad.Ghost does not resolve to a declared function",
		"allow line needs",
		`unknown registry directive "budget"`,
		"unterminated ```vet:hotpaths block",
		"hotpathreg_bad.Rogue is marked //vet:hotpath but has no hotpath entry",
	}
	for _, want := range wants {
		found := false
		for _, d := range res.Diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got:\n%s", want, renderDiags(res.Diags))
		}
	}
}

// TestHotAllocFix: the append-growth finding on a `var x []T` local
// appended inside a range loop carries the mechanical pre-size rewrite.
func TestHotAllocFix(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "hotalloc_bad")
	runner := &Runner{Analyzers: []*Analyzer{HotAlloc}}
	res := runner.RunPackages([]*Package{pkg})
	const want = "out := make([]string, 0, len(events))"
	found := false
	for _, d := range res.Diags {
		if d.Fix == nil {
			continue
		}
		for _, e := range d.Fix.Edits {
			if e.NewText == want {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no suggested fix rewriting the declaration to %q; got:\n%s", want, renderDiags(res.Diags))
	}
}

// TestHotpathRevert is the acceptance gate in test form: neither half
// of the hot-path contract on internal/sim can be deleted silently.
// Stripping the //vet:hotpath markers leaves registered roots
// unannotated; stripping the registry's hotpath lines leaves marked
// declarations unregistered. Both must fail the gate.
func TestHotpathRevert(t *testing.T) {
	loader := newTestLoader(t)

	markerless := revertedHotSim(t, loader, true, false)
	wantDiag(t, markerless, "lacks a //vet:hotpath marker")

	unregistered := revertedHotSim(t, loader, false, true)
	wantDiag(t, unregistered, "has no hotpath entry")
}

// revertedHotSim copies the non-test files of internal/sim into a
// scratch package directory named "sim" (so registry quals still
// resolve), optionally stripping //vet:hotpath markers from the
// sources or `hotpath` lines from HOTPATH.md, and returns the loaded
// package's diagnostics under the full default rule set.
func revertedHotSim(t *testing.T, loader *Loader, stripMarkers, stripRegistry bool) []Diagnostic {
	t.Helper()
	src := filepath.Join("..", "sim")
	root, err := os.MkdirTemp("testdata", "hotreverted-")
	if err != nil {
		t.Fatalf("MkdirTemp: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(root) })
	dir := filepath.Join(root, "sim")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading %s: %v", src, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if stripMarkers && strings.HasSuffix(name, ".go") {
			var kept []string
			for _, line := range strings.Split(string(data), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "//vet:hotpath") {
					continue // the revert under test
				}
				kept = append(kept, line)
			}
			data = []byte(strings.Join(kept, "\n"))
		}
		if stripRegistry && name == hotRegistryName {
			var kept []string
			for _, line := range strings.Split(string(data), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "hotpath ") {
					continue // the revert under test
				}
				kept = append(kept, line)
			}
			data = []byte(strings.Join(kept, "\n"))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading reverted package: %v", err)
	}
	return NewRunner().RunPackages([]*Package{pkg}).Diags
}

func wantDiag(t *testing.T, diags []Diagnostic, want string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, want) {
			return
		}
	}
	t.Errorf("want a finding containing %q after revert; got:\n%s", want, renderDiags(diags))
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
