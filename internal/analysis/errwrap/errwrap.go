// Package errwrap defines an analyzer that guards the public error
// taxonomy.
//
// Rule 1 applies everywhere: an error value formatted into fmt.Errorf with
// %v or %s instead of %w is severed from errors.Is/As — callers can no
// longer classify it. PR 4 built the geckoftl taxonomy on exactly that
// classification, so a %v-wrapped sentinel is a silent contract break.
//
// Rule 2 applies to the public geckoftl package only: an error produced by
// a geckoftl/internal call must not be returned as-is from an exported
// function. It has to pass through a classification point (wrapErr or a %w
// wrap) so internal sentinels never leak raw across the API boundary.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
	"unicode/utf8"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check that errors are wrapped with %w and classified at the API boundary

fmt.Errorf must format error operands with %w, not %v or %s, so errors.Is
and errors.As keep seeing the chain. In the root geckoftl package, exported
functions must not return errors from geckoftl/internal calls unwrapped —
route them through wrapErr (or an explicit %w wrap) to classify them under
the public taxonomy.`

// Analyzer is the errwrap analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "errwrap",
	Doc:  doc,
	Run:  run,
}

// publicPkg is the import path of the package whose exported surface rule 2
// seals. Kept a variable for the fixture tests.
var publicPkg = "geckoftl"

func run(pass *lintutil.Pass) {

	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		checkErrorf(pass, n.(*ast.CallExpr))
	})

	if pass.Pkg.Path() == publicPkg {
		pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
			fn := n.(*ast.FuncDecl)
			if fn.Body == nil || !fn.Name.IsExported() || lintutil.IsTestFile(pass, fn.Pos()) {
				return
			}
			checkBoundary(pass, fn)
		})
	}
}

// checkErrorf verifies that every error operand of a fmt.Errorf call with a
// constant format string is matched to a %w verb.
func checkErrorf(pass *lintutil.Pass, call *ast.CallExpr) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass, call.Args[0])
	if !ok {
		return
	}
	verbs, ok := parseVerbs(format)
	if !ok {
		return // indexed or otherwise exotic format: out of scope
	}
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) {
			break
		}
		if verb != 'v' && verb != 's' {
			continue
		}
		t := pass.TypesInfo.TypeOf(args[i])
		if t == nil || !lintutil.IsErrorType(t) {
			continue
		}
		pass.Reportf(args[i],
			"error formatted with %%%c loses its chain for errors.Is/As; use %%w (the PR 4 taxonomy bug class)", verb)
	}
}

// checkBoundary flags return statements in exported root-package functions
// whose error results come straight from a geckoftl/internal call.
func checkBoundary(pass *lintutil.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			callee := lintutil.CalleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil {
				continue
			}
			if !strings.HasPrefix(callee.Pkg().Path(), publicPkg+"/internal") {
				continue
			}
			if !returnsError(pass, call) {
				continue
			}
			pass.Reportf(res,
				"%s's error crosses the public API unwrapped; classify it under the taxonomy first (wrapErr or fmt.Errorf with %%w)",
				callee.Name())
		}
		return true
	})
}

// returnsError reports whether the call produces an error: a single error
// result or a tuple whose last element is one.
func returnsError(pass *lintutil.Pass, call *ast.CallExpr) bool {
	switch t := pass.TypesInfo.TypeOf(call).(type) {
	case *types.Tuple:
		return t.Len() > 0 && lintutil.IsErrorType(t.At(t.Len()-1).Type())
	default:
		return lintutil.IsErrorType(t)
	}
}

func constantString(pass *lintutil.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// parseVerbs returns the verb letter consuming each successive operand of a
// Printf-style format. It reports !ok for formats using explicit argument
// indexes, which this analyzer does not model.
func parseVerbs(format string) ([]rune, bool) {
	var verbs []rune
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		i++ // past '%'
		if i < len(format) && format[i] == '%' {
			i++
			continue
		}
		// Flags, width, precision. A '*' consumes an operand of its own.
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.ContainsRune("+-# 0123456789.", rune(c)) {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		r, size := utf8.DecodeRuneInString(format[i:])
		verbs = append(verbs, r)
		i += size
	}
	return verbs, true
}
