// Package detrand defines an analyzer banning the global math/rand
// generators in production code.
//
// Everything stochastic in this repo — workload generators, fault plans,
// the endurance sweep — must flow through a seeded *rand.Rand handed in by
// the caller, because determinism is a feature: the same seed must replay
// the same operation stream, fault-hammer schedules must shrink to minimal
// reproducers, and the sweep tests pin exact expected numbers. The global
// math/rand functions draw from a shared, seed-uncontrolled source (and
// math/rand/v2 removed Seed entirely), so one call quietly breaks
// replayability for the whole process.
package detrand

import (
	"go/ast"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `ban global math/rand draws in non-test code; randomness must flow through a seeded *rand.Rand

Calls to the package-level draw functions of math/rand and math/rand/v2
(Intn, Float64, Shuffle, Perm, ...) are flagged outside _test.go files.
Constructors (New, NewSource, NewZipf, NewPCG) are allowed — they are how a
seeded generator is made. Methods on a *rand.Rand are always allowed.`

// Analyzer is the detrand analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "detrand",
	Doc:  doc,
	Run:  run,
}

// allowed are the package-level functions that construct or compose seeded
// generators rather than drawing from the global one.
var allowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *lintutil.Pass) {
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if lintutil.IsTestFile(pass, call.Pos()) {
			return
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method on a *rand.Rand / rand.Source: seeded, fine
		}
		if allowed[fn.Name()] {
			return
		}
		pass.Reportf(call,
			"global %s.%s draws from the shared unseeded source, breaking seed-replayability; thread a seeded *rand.Rand instead",
			path, fn.Name())
	})
}
