// Package analysis assembles geckolint: the repo-specific analyzer suite
// that turns this project's hard-won invariants — deterministic replay,
// honest cancellation, a sealed error taxonomy, paired locking — into
// build breaks. Each analyzer is grounded in a bug class a past PR actually
// shipped; docs/analysis.md catalogues the mapping.
package analysis

import (
	"fmt"

	"geckoftl/internal/analysis/apiboundary"
	"geckoftl/internal/analysis/ctxcheck"
	"geckoftl/internal/analysis/detrand"
	"geckoftl/internal/analysis/errwrap"
	"geckoftl/internal/analysis/lintutil"
	"geckoftl/internal/analysis/lockdiscipline"
	"geckoftl/internal/analysis/lockorder"
	"geckoftl/internal/analysis/maporder"
)

// All returns the full geckolint suite in a stable (alphabetical) order.
// It panics on an invalid suite; Assemble is the checked variant.
func All() []*lintutil.Analyzer {
	all, err := Assemble()
	if err != nil {
		panic(err)
	}
	return all
}

// Assemble builds and validates the suite: analyzer names must be unique
// (findings and waivers cite a rule by name, so a collision silently merges
// two rules) and listed in alphabetical order, keeping the registry
// reviewable across refactors.
func Assemble() ([]*lintutil.Analyzer, error) {
	all := []*lintutil.Analyzer{
		apiboundary.Analyzer,
		ctxcheck.Analyzer,
		detrand.Analyzer,
		errwrap.Analyzer,
		lockdiscipline.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
	}
	if err := Check(all); err != nil {
		return nil, err
	}
	return all, nil
}

// Check enforces the registry invariants on a candidate suite: unique
// analyzer names and alphabetical order.
func Check(all []*lintutil.Analyzer) error {
	seen := map[string]bool{}
	for i, a := range all {
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if i > 0 && all[i-1].Name >= a.Name {
			return fmt.Errorf("analysis: registry out of order: %q before %q", all[i-1].Name, a.Name)
		}
	}
	return nil
}
