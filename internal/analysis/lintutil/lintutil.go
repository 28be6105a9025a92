// Package lintutil holds the small helpers the geckolint analyzers share:
// suppression comments, test-file detection and type predicates.
package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// IsTestFile reports whether pos lies in a _test.go file. The analyzers skip
// test files for rules that only guard production invariants (detrand) and
// keep them for rules whose bug class bites tests too.
func IsTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Ignored reports whether a suppression comment of the form
//
//	//geckolint:ignore <name>[,<name>...] <reason>
//
// naming the given analyzer waives a diagnostic at pos. See IgnoredIn for
// where the comment may sit.
func Ignored(pass *analysis.Pass, pos token.Pos, name string) bool {
	tf := pass.Fset.File(pos)
	if tf == nil {
		return false
	}
	for _, f := range pass.Files {
		if pass.Fset.File(f.Pos()) == tf {
			return IgnoredIn(pass.Fset, f, pos, name)
		}
	}
	return false
}

// IgnoredIn is Ignored for callers that hold the file directly. A waiver
// attaches to the innermost statement enclosing pos, not to the literal
// diagnostic line: the comment may sit on the diagnostic's line, the line
// directly above it, anywhere within the enclosing statement's span, or on
// the line directly above that statement. gofmt re-attaching a comment within a multi-line
// statement therefore cannot silently drop a waiver. Suppressions stay
// per-analyzer so a waiver cannot widen to other rules.
func IgnoredIn(fset *token.FileSet, f *ast.File, pos token.Pos, name string) bool {
	tf := fset.File(pos)
	if tf == nil || fset.File(f.Pos()) != tf {
		return false
	}
	line := tf.Line(pos)
	lo, hi := line-1, line
	if start, end, ok := enclosingStmtSpan(f, pos); ok {
		if s := tf.Line(start) - 1; s < lo {
			lo = s
		}
		if e := tf.Line(end); e > hi {
			hi = e
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//geckolint:ignore")
			if !ok {
				continue
			}
			cline := tf.Line(c.Pos())
			if cline < lo || cline > hi {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			for _, n := range strings.Split(fields[0], ",") {
				if n == name {
					return true
				}
			}
		}
	}
	return false
}

// enclosingStmtSpan returns the source span a waiver for pos may occupy: the
// innermost non-block statement containing pos. Compound statements (if, for,
// range, switch, select) span only their header — a waiver inside the body
// attaches to the body's own statements, not to the whole construct.
func enclosingStmtSpan(f *ast.File, pos token.Pos) (start, end token.Pos, ok bool) {
	var best ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			// Structural containers, not waiver anchors.
		default:
			// Deeper statements are visited later and overwrite shallower
			// ones, so best ends up innermost.
			if s, isStmt := n.(ast.Stmt); isStmt {
				best = s
			}
		}
		return true
	})
	if best == nil {
		return 0, 0, false
	}
	end = best.End()
	switch s := best.(type) {
	case *ast.IfStmt:
		end = s.Body.Pos()
	case *ast.ForStmt:
		end = s.Body.Pos()
	case *ast.RangeStmt:
		end = s.Body.Pos()
	case *ast.SwitchStmt:
		end = s.Body.Pos()
	case *ast.TypeSwitchStmt:
		end = s.Body.Pos()
	case *ast.SelectStmt:
		end = s.Body.Pos()
	}
	return best.Pos(), end, true
}

// Report files a diagnostic unless a //geckolint:ignore comment waives it.
func Report(pass *analysis.Pass, name string, rng analysis.Range, format string, args ...interface{}) {
	if Ignored(pass, rng.Pos(), name) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     rng.Pos(),
		End:     rng.End(),
		Message: fmt.Sprintf(format, args...),
	})
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
