// Package atomicmix defines an analyzer that flags variables accessed both
// through sync/atomic free functions and through plain loads and stores —
// the half-atomic discipline that the race detector only catches when the
// racing pair actually interleaves under test.
//
// The bug class is PR 9's busyUntil CAS-ratchet shape: a field advanced
// with atomic.CompareAndSwapInt64 in one function and read with a plain
// load in another compiles fine, usually works, and is still a data race —
// the plain load can observe a torn or stale value and the compiler may
// cache it across the CAS loop. The fix is always to pick one discipline:
// either every access goes through sync/atomic (best: the typed
// atomic.Int64 wrappers, which make plain access impossible), or every
// access is under the mutex.
//
// The analyzer resolves each &x passed to a sync/atomic free function to
// its types.Object — a struct field (any instance) or a package-level
// variable — and then reports every plain read or write of the same object
// elsewhere in the package. Typed atomics (atomic.Int64, atomic.Bool, ...)
// need no checking: their internals are unexported, so the compiler already
// enforces the discipline. That is also why this repo's own code should
// prefer them; the analyzer exists for the free-function style that slips
// in with ported code.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check for variables accessed both via sync/atomic and via plain loads/stores

A field passed to atomic.Load/Store/Add/Swap/CompareAndSwap in one place and
read or written directly in another is a data race the compiler cannot see
and the race detector only finds when the interleaving happens. Pick one
discipline — a typed atomic (atomic.Int64), all free-function atomics, or
the mutex.`

// Analyzer is the atomicmix analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "atomicmix",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {

	// Pass 1: find every object whose address is taken by a sync/atomic free
	// function, remembering one representative site per object and the exact
	// operand expressions (to exclude them from the plain-access scan).
	atomicSite := map[types.Object]ast.Expr{}
	inAtomicCall := map[ast.Expr]bool{}
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods on the typed atomics are always safe
		}
		for _, arg := range call.Args {
			u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			operand := ast.Unparen(u.X)
			obj := accessedObject(pass.TypesInfo, operand)
			if obj == nil {
				continue
			}
			inAtomicCall[operand] = true
			if _, seen := atomicSite[obj]; !seen {
				atomicSite[obj] = operand
			}
		}
	})
	if len(atomicSite) == 0 {
		return
	}

	// Pass 2: report every plain access of those objects. Taking the address
	// for another atomic call was excluded above; any other appearance is a
	// plain load, store, or escape of the address into code this analyzer
	// cannot follow — all of them break the discipline.
	pass.Preorder([]ast.Node{(*ast.SelectorExpr)(nil), (*ast.Ident)(nil)}, func(n ast.Node) {
		var obj types.Object
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if inAtomicCall[e] {
				return
			}
			sel, ok := pass.TypesInfo.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			obj = sel.Obj()
		case *ast.Ident:
			if inAtomicCall[e] {
				return
			}
			v, ok := pass.TypesInfo.Uses[e].(*types.Var)
			if !ok || !isPackageLevel(v) {
				return
			}
			obj = v
		}
		site, mixed := atomicSite[obj]
		if !mixed {
			return
		}
		pass.Reportf(n,
			"%s is accessed atomically at %s but with a plain load/store here: pick one discipline (typed atomic, all sync/atomic, or the mutex)",
			obj.Name(), pass.Fset.Position(site.Pos()))
	})
}

// accessedObject resolves the operand of &x in an atomic call to the object
// the analyzer tracks: a struct field (via selection) or a package-level
// variable. Locals are skipped — a local cannot be concurrently accessed
// without also escaping, at which point the shared copy is a field anyway.
func accessedObject(info *types.Info, operand ast.Expr) types.Object {
	switch e := operand.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && isPackageLevel(v) {
			return v
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && isPackageLevel(v) {
			return v
		}
	}
	return nil
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
