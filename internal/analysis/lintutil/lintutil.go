// Package lintutil is what the geckolint analyzers are written against: the
// rule API (Analyzer, Pass), the core that type-checks a package and runs
// rules over it (Check, Run), the //geckolint:ignore waivers Run applies, and
// a few type predicates the rules share.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether pos lies in a _test.go file. The analyzers skip
// test files for rules that only guard production invariants (detrand) and
// keep them for rules whose bug class bites tests too.
func IsTestFile(pass *Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// IsErrorType reports whether t implements the built-in error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// CalleeFunc resolves the called *types.Func of a call expression, or nil
// for calls through function-typed variables, built-ins and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ObjectOf returns the object an identifier expression resolves to, seeing
// through parentheses. It returns nil for non-identifier expressions.
func ObjectOf(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// UsesObject reports whether any identifier under root resolves to obj.
func UsesObject(info *types.Info, root ast.Node, obj types.Object) bool {
	if obj == nil || root == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
