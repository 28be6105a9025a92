// Package lockdiscipline defines an analyzer for the one mutex convention
// the sharded engine and the flash device lean on that no other tool checks:
// a function that calls X.Lock() must also unlock X (directly or via defer).
// Lock handoffs across functions are rare enough here that they must be
// annotated with //geckolint:ignore lockdiscipline <reason>. Copied locks are
// go vet's copylocks check, which CI runs.
package lockdiscipline

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check mutex discipline: paired Lock/Unlock

Flags functions that lock a mutex on some path without any matching unlock of
the same expression.`

// Analyzer is the lockdiscipline analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "lockdiscipline",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if fn := n.(*ast.FuncDecl); fn.Body != nil {
			checkPairing(pass, fn)
		}
	})
}

// checkPairing flags Lock/RLock calls in a function with no matching
// Unlock/RUnlock of the same expression anywhere in the function (deferred
// or direct). This is a per-function heuristic, not a path-sensitive proof:
// it catches the forgotten-unlock shape without chasing interprocedural
// handoffs.
func checkPairing(pass *lintutil.Pass, fn *ast.FuncDecl) {
	locks := map[string]*ast.CallExpr{}  // expr text -> first Lock call
	unlocks := map[string]bool{}         // expr text -> has Unlock
	rlocks := map[string]*ast.CallExpr{} // expr text -> first RLock call
	runlocks := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := lockCallKind(pass, call)
		if kind == "" {
			return true
		}
		key := exprText(pass.Fset, call.Fun.(*ast.SelectorExpr).X)
		switch kind {
		case "Lock":
			if locks[key] == nil {
				locks[key] = call
			}
		case "Unlock":
			unlocks[key] = true
		case "RLock":
			if rlocks[key] == nil {
				rlocks[key] = call
			}
		case "RUnlock":
			runlocks[key] = true
		}
		return true
	})
	for key, call := range locks {
		if !unlocks[key] {
			pass.Reportf(call,
				"%s.Lock() has no matching %s.Unlock() in this function; unlock on every path (defer), or annotate a deliberate handoff",
				key, key)
		}
	}
	for key, call := range rlocks {
		if !runlocks[key] {
			pass.Reportf(call,
				"%s.RLock() has no matching %s.RUnlock() in this function; unlock on every path (defer), or annotate a deliberate handoff",
				key, key)
		}
	}
}

// lockCallKind classifies a call as Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, or "" otherwise.
func lockCallKind(pass *lintutil.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name()
	}
	return ""
}

func exprText(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, expr)
	return buf.String()
}
