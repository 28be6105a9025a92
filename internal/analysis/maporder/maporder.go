// Package maporder defines an analyzer that flags order-dependent results
// built by ranging over a map.
//
// Go randomizes map iteration order on purpose, so any output assembled in
// iteration order — a slice that is never sorted, a min/max "victim" picked
// with a comparison, text printed per key — differs from run to run. In this
// repo that is not a style nit: recovery must replay identically, victim
// selection feeds garbage collection (the PR 5 nondeterministic victim bug),
// and the simulation sweeps pin exact expected numbers in tests.
// Order-independent uses — building another map, counting, summing,
// deleting — pass untouched.
package maporder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `flag nondeterministic results assembled by ranging over a map

Three order-dependent shapes are reported: appending to a slice declared
outside the loop with no subsequent sort of that slice in the same function;
selecting a min/max into an outer variable with a comparison (victim
picking); and printing per-element output. Iterate sorted keys, sort the
result, or pin a total tie-break instead. Deliberately unordered collection
can be waived with //geckolint:ignore maporder <reason>.`

// Analyzer is the maporder analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "maporder",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {
	// Walk with stacks so each map-range loop knows its enclosing function
	// body (needed to look for a sort after the loop).
	pass.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, stack []ast.Node) {
		rng := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return
		}
		checkMapRange(pass, rng, enclosingFuncBody(stack))
	})
}

// enclosingFuncBody returns the body of the innermost function on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pass *lintutil.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			checkAppend(pass, rng, fnBody, n)
		case *ast.IfStmt:
			checkMinMax(pass, rng, n)
		case *ast.CallExpr:
			checkPrint(pass, rng, n)
		}
		return true
	})
}

// checkAppend flags `s = append(s, ...)` inside a map range when s is
// declared outside the loop and never sorted later in the same function:
// the slice's element order is the map's random iteration order.
func checkAppend(pass *lintutil.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
			continue
		}
		obj := lintutil.ObjectOf(pass.TypesInfo, assign.Lhs[i])
		if obj == nil || obj.Pos() == token.NoPos {
			continue
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			continue // loop-local scratch: its order dies with the iteration
		}
		if sortedAfter(pass, fnBody, rng, obj) {
			continue
		}
		pass.Reportf(assign,
			"%s is appended to in map-iteration order and never sorted in this function; map order is randomized, so the result is nondeterministic — sort %s (or iterate sorted keys)",
			obj.Name(), obj.Name())
	}
}

// checkMinMax flags comparison-guarded assignments to outer state — the
// victim-selection shape `if cand.score > best.score { best = cand }` —
// whose winner depends on iteration order whenever scores tie.
//
// Pure value aggregation is exempt: `if c > max { max = c }` assigns exactly
// the compared expression, so a tie assigns an equal value and the result is
// order-independent. The order-dependent shape is argmax — remembering the
// key, or a composite the comparison only partially orders.
func checkMinMax(pass *lintutil.Pass, rng *ast.RangeStmt, ifStmt *ast.IfStmt) {
	if !hasOrderingComparison(ifStmt.Cond) {
		return
	}
	compared := comparedOperands(pass.Fset, ifStmt.Cond)
	for _, stmt := range ifStmt.Body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
			continue
		}
		for i, lhs := range assign.Lhs {
			obj := lintutil.ObjectOf(pass.TypesInfo, lhs)
			if obj == nil || obj.Pos() == token.NoPos {
				continue
			}
			if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				continue
			}
			if compared[exprText(pass.Fset, assign.Rhs[i])] && !usesRangeKey(pass, rng, assign.Rhs[i]) {
				continue // value-max: ties assign equal values
			}
			pass.Reportf(ifStmt,
				"min/max selection of %s over map iteration is nondeterministic on ties; iterate sorted keys or pin a total tie-break (the PR 5 victim-selection bug class)",
				obj.Name())
			return
		}
	}
}

// comparedOperands returns the source text of every operand of an ordering
// comparison in cond.
func comparedOperands(fset *token.FileSet, cond ast.Expr) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			out[exprText(fset, bin.X)] = true
			out[exprText(fset, bin.Y)] = true
		}
		return true
	})
	return out
}

// usesRangeKey reports whether expr mentions the range statement's key
// variable — remembering which key won is argmax, always order-dependent.
func usesRangeKey(pass *lintutil.Pass, rng *ast.RangeStmt, expr ast.Expr) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	return lintutil.UsesObject(pass.TypesInfo, expr, pass.TypesInfo.ObjectOf(key))
}

// checkPrint flags per-element output emitted in map-iteration order.
func checkPrint(pass *lintutil.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	switch fn.Name() {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		pass.Reportf(call,
			"fmt.%s inside a map range emits output in randomized map order; iterate sorted keys", fn.Name())
	}
}

func exprText(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, expr)
	return buf.String()
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// hasOrderingComparison reports whether the condition contains an ordering
// operator (<, >, <=, >=). Pure equality tests are not min/max selection.
func hasOrderingComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed (anywhere in the argument tree)
// to a sort.* or slices.Sort* call after the loop ends, in the same function.
func sortedAfter(pass *lintutil.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if lintutil.UsesObject(pass.TypesInfo, arg, obj) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}
