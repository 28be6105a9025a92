// Package ctxcheck defines an analyzer that enforces the engine's batch
// cancellation contract: a function that accepts a context.Context and then
// performs fallible per-item work in a loop must consult the context inside
// that loop.
//
// The rule is the mechanical form of the PR 5 batch-cancellation bug: the
// engine's fan-out drained each shard's sub-batch to completion even after
// the caller's ctx was cancelled, because ctx was checked once at entry and
// never again. Checking at entry only is exactly the pattern this analyzer
// rejects — cancellation must stop a batch at an operation boundary, not
// after the batch.
package ctxcheck

import (
	"go/ast"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check that loops doing fallible per-item work consult their context

A function taking a context.Context that iterates and calls error-returning
operations per item must reference the context inside the loop body — via
ctx.Err(), a select on ctx.Done(), or by passing ctx to the per-item call.
A context checked only at function entry cannot cancel a long batch
mid-flight (the PR 5 Engine batch bug). Loops that only shuffle data (no
error-returning calls) are exempt. Suppress a deliberate drain-to-completion
loop with //geckolint:ignore ctxcheck <reason>.`

// Analyzer is the ctxcheck analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "ctxcheck",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {
	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	pass.Preorder(nodeFilter, func(n ast.Node) {
		var ftype *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ftype, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ftype, body = fn.Type, fn.Body
		}
		if body == nil {
			return
		}
		ctxObj := contextParam(pass, ftype)
		if ctxObj == nil {
			return
		}
		checkBody(pass, body, ctxObj)
	})
}

// contextParam returns the object of the function's context.Context
// parameter, or nil if the function takes none (or discards it as _).
func contextParam(pass *lintutil.Pass, ftype *ast.FuncType) types.Object {
	if ftype == nil || ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil || t.String() != "context.Context" {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(name); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// checkBody flags each loop in body that makes fallible calls without
// consulting ctx. Function literals that declare their own context
// parameter are skipped (run visits them as nodes of their own,
// against that parameter); literals that merely capture ctx — the engine's
// per-shard goroutines, where the PR 5 bug actually lived — are traversed
// against the captured object.
func checkBody(pass *lintutil.Pass, body *ast.BlockStmt, ctx types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.FuncLit:
			return contextParam(pass, loop.Type) == nil
		case *ast.ForStmt:
			checkLoop(pass, loop, loop.Body, ctx)
		case *ast.RangeStmt:
			checkLoop(pass, loop, loop.Body, ctx)
		}
		return true
	})
}

func checkLoop(pass *lintutil.Pass, loop ast.Node, body *ast.BlockStmt, ctx types.Object) {
	if body == nil {
		return
	}
	if lintutil.UsesObject(pass.TypesInfo, body, ctx) {
		return
	}
	if !hasFallibleCall(pass, body) {
		return
	}
	pass.Reportf(loop,
		"loop performs fallible per-item work but never consults %s; check %s.Err() (or pass %s) each iteration so cancellation stops the batch at an operation boundary",
		ctx.Name(), ctx.Name(), ctx.Name())
}

// hasFallibleCall reports whether the loop body contains a call whose result
// (or last tuple element) is an error — the per-item work a cancelled batch
// must not keep doing. Function literals declared inside the body count too:
// work deferred into a closure is still work.
func hasFallibleCall(pass *lintutil.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(call)
		switch t := t.(type) {
		case *types.Tuple:
			if t.Len() > 0 && lintutil.IsErrorType(t.At(t.Len()-1).Type()) {
				found = true
			}
		default:
			if lintutil.IsErrorType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}
