// Package lockdiscipline defines an analyzer for the repo's mutex
// conventions, which the sharded engine and the flash device lean on:
//
//   - sync primitives (Mutex, RWMutex, WaitGroup, Once, Cond) must never be
//     copied — a copied lock guards nothing;
//   - a method named ...Locked documents "caller holds the lock"; locking
//     the receiver's own mutex inside one is a self-deadlock (Go mutexes
//     are not reentrant);
//   - a function that calls X.Lock() must also unlock X (directly or via
//     defer). Lock handoffs across functions are rare enough here that they
//     must be annotated with //geckolint:ignore lockdiscipline <reason>.
package lockdiscipline

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check mutex discipline: no copied locks, no self-locking ...Locked methods, paired Lock/Unlock

Flags sync primitives passed or received by value (a copied mutex guards a
different lock than its original), ...Locked-suffixed methods that lock their
own receiver's mutex (self-deadlock: the suffix promises the caller already
holds it), and functions that lock a mutex on some path without any matching
unlock of the same expression.`

// Analyzer is the lockdiscipline analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "lockdiscipline",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		checkSignatureCopies(pass, fn)
		if fn.Body == nil {
			return
		}
		checkLockedSuffix(pass, fn)
		checkPairing(pass, fn)
	})
	pass.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		checkRangeCopy(pass, n.(*ast.RangeStmt))
	})
}

// checkSignatureCopies flags by-value receivers, parameters and results
// whose types contain a sync primitive.
func checkSignatureCopies(pass *lintutil.Pass, fn *ast.FuncDecl) {
	check := func(fields *ast.FieldList, what string) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, ok := t.Underlying().(*types.Pointer); ok {
				continue
			}
			if prim := lockPrimitive(t, nil); prim != "" {
				pass.Reportf(field,
					"%s of %s passes %s by value, copying its %s; use a pointer",
					what, fn.Name.Name, typeLabel(t), prim)
			}
		}
	}
	check(fn.Recv, "receiver")
	check(fn.Type.Params, "parameter")
	check(fn.Type.Results, "result")
}

// checkRangeCopy flags `for _, x := range xs` where the element type
// contains a sync primitive and is not a pointer: each iteration copies the
// lock into x.
func checkRangeCopy(pass *lintutil.Pass, rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	if id, ok := rng.Value.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	t := pass.TypesInfo.TypeOf(rng.Value)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return
	}
	if prim := lockPrimitive(t, nil); prim != "" {
		pass.Reportf(rng.Value,
			"range copies %s by value, copying its %s; range over indices or pointers",
			typeLabel(t), prim)
	}
}

// checkLockedSuffix flags recv.mu.Lock()/RLock() inside a ...Locked method.
func checkLockedSuffix(pass *lintutil.Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	name := fn.Name.Name
	if len(name) <= len("Locked") || name[len(name)-len("Locked"):] != "Locked" {
		return
	}
	recv := pass.TypesInfo.ObjectOf(fn.Recv.List[0].Names[0])
	if recv == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := lockCallKind(pass, call)
		if kind != "Lock" && kind != "RLock" {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr) // lockCallKind guarantees the shape
		if !lintutil.UsesObject(pass.TypesInfo, sel.X, recv) {
			return true
		}
		pass.Reportf(call,
			"%s is documented as called-with-lock-held (the Locked suffix) but %ss its own receiver's mutex: self-deadlock",
			name, kind)
		return true
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

// lockPrimitive returns the name of the first sync primitive found inside t
// (struct fields included, recursively), or "".
func lockPrimitive(t types.Type, seen map[types.Type]bool) string {
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return "sync." + obj.Name()
			}
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if prim := lockPrimitive(st.Field(i).Type(), seen); prim != "" {
			return prim
		}
	}
	return ""
}

func typeLabel(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func exprText(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, expr)
	return buf.String()
}
