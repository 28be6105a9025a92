package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Analyzer is one geckolint rule: the name its findings and waivers cite,
// its documentation, and the function that inspects one package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Package is one parsed and type-checked package, the unit a rule inspects.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Pass is one rule's view of one package.
type Pass struct {
	*Package
	report func(token.Pos, string)
}

// Reportf files a finding at n's position. Whether a //geckolint:ignore
// comment waives it is for Run to decide, not for the rule.
func (p *Pass) Reportf(n ast.Node, format string, args ...any) {
	p.report(n.Pos(), fmt.Sprintf(format, args...))
}

// Preorder calls fn for every node of the package whose type is that of one
// of kinds, file by file and parents before children.
func (p *Pass) Preorder(kinds []ast.Node, fn func(ast.Node)) {
	p.WithStack(kinds, func(n ast.Node, _ []ast.Node) { fn(n) })
}

// WithStack is Preorder with the path from the file down to n, n last. The
// stack is only valid during the call.
func (p *Pass) WithStack(kinds []ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	want := make(map[reflect.Type]bool, len(kinds))
	for _, k := range kinds {
		want[reflect.TypeOf(k)] = true
	}
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if want[reflect.TypeOf(n)] {
				fn(n, stack)
			}
			return true
		})
	}
}
