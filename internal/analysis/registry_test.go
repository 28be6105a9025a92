package analysis_test

import (
	"strings"
	"testing"

	"geckoftl/internal/analysis"
	"geckoftl/internal/analysis/lintutil"
)

// TestSuiteValid checks that every rule of the suite is complete: a name for
// findings and waivers to cite, documentation, and something to run.
func TestSuiteValid(t *testing.T) {
	all := analysis.All()
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks a name, documentation or a Run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{
		"ctxcheck", "maporder", "errwrap", "lockdiscipline", "detrand", "apiboundary",
		"lockorder",
	} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// TestStableOrder pins the registration order.
func TestStableOrder(t *testing.T) {
	var got []string
	for _, a := range analysis.All() {
		got = append(got, a.Name)
	}
	want := []string{
		"apiboundary", "ctxcheck", "detrand", "errwrap",
		"lockdiscipline", "lockorder", "maporder",
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

// TestCheckRejectsDuplicates covers the name invariant: two analyzers sharing
// a name would silently merge their findings' attribution and their waivers.
func TestCheckRejectsDuplicates(t *testing.T) {
	a := &lintutil.Analyzer{Name: "aaa", Doc: "x", Run: nil}
	b := &lintutil.Analyzer{Name: "aaa", Doc: "y", Run: nil}
	err := analysis.Check([]*lintutil.Analyzer{a, b})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Check(dup) = %v, want duplicate-name error", err)
	}
}

// TestCheckRejectsDisorder pins the alphabetical requirement — the property
// TestStableOrder relies on, enforced at assembly time rather than by a
// test that must be hand-updated.
func TestCheckRejectsDisorder(t *testing.T) {
	a := &lintutil.Analyzer{Name: "bbb", Doc: "x", Run: nil}
	b := &lintutil.Analyzer{Name: "aaa", Doc: "y", Run: nil}
	err := analysis.Check([]*lintutil.Analyzer{a, b})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Check(disorder) = %v, want out-of-order error", err)
	}
}
