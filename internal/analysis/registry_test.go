package analysis_test

import (
	"strings"
	"testing"

	goanalysis "golang.org/x/tools/go/analysis"

	"geckoftl/internal/analysis"
)

// TestSuiteValid checks the suite against the framework's own validator:
// names, docs, and the Requires graph must satisfy the go vet contract.
func TestSuiteValid(t *testing.T) {
	all := analysis.All()
	if len(all) != 9 {
		t.Fatalf("suite has %d analyzers, want 9", len(all))
	}
	if err := goanalysis.Validate(all); err != nil {
		t.Fatalf("invalid suite: %v", err)
	}
	seen := map[string]bool{}
	for _, a := range all {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{
		"ctxcheck", "maporder", "errwrap", "lockdiscipline", "detrand", "apiboundary",
		"atomicmix", "lockorder", "ticketcomplete",
	} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// TestStableOrder pins the registration order: go vet caches on the tool's
// -V fingerprint plus flags, and a stable order keeps diagnostics grouped
// consistently in CI logs.
func TestStableOrder(t *testing.T) {
	var got []string
	for _, a := range analysis.All() {
		got = append(got, a.Name)
	}
	want := []string{
		"apiboundary", "atomicmix", "ctxcheck", "detrand", "errwrap",
		"lockdiscipline", "lockorder", "maporder", "ticketcomplete",
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("analyzer order = %v, want %v", got, want)
		}
	}
}

// TestAssembleMatchesAll pins that the panicking accessor and the checked
// constructor return the same suite.
func TestAssembleMatchesAll(t *testing.T) {
	checked, err := analysis.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	all := analysis.All()
	if len(checked) != len(all) {
		t.Fatalf("Assemble returned %d analyzers, All returned %d", len(checked), len(all))
	}
	for i := range all {
		if checked[i] != all[i] {
			t.Errorf("analyzer %d differs: %q vs %q", i, checked[i].Name, all[i].Name)
		}
	}
}

// TestCheckRejectsDuplicates covers the invariant go vet cannot enforce for
// us: two analyzers sharing a name would silently merge their flag
// namespaces and diagnostic attribution.
func TestCheckRejectsDuplicates(t *testing.T) {
	a := &goanalysis.Analyzer{Name: "aaa", Doc: "x", Run: nil}
	b := &goanalysis.Analyzer{Name: "aaa", Doc: "y", Run: nil}
	err := analysis.Check([]*goanalysis.Analyzer{a, b})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Check(dup) = %v, want duplicate-name error", err)
	}
}

// TestCheckRejectsDisorder pins the alphabetical requirement — the property
// TestStableOrder relies on, enforced at assembly time rather than by a
// test that must be hand-updated.
func TestCheckRejectsDisorder(t *testing.T) {
	a := &goanalysis.Analyzer{Name: "bbb", Doc: "x", Run: nil}
	b := &goanalysis.Analyzer{Name: "aaa", Doc: "y", Run: nil}
	err := analysis.Check([]*goanalysis.Analyzer{a, b})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Check(disorder) = %v, want out-of-order error", err)
	}
}
