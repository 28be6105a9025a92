package lintutil

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Finding is one diagnostic, in the flat shape geckolint prints.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Check type-checks files as the package with the given import path,
// resolving its imports through imp. A type error does not stop it: the
// package comes back with everything that could be checked, together with
// the first error.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var first error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if first == nil {
				first = err
			}
		},
	}
	pkg, _ := conf.Check(path, fset, files, info)
	return &Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, first
}

// ImporterFunc adapts a function to the types.Importer Check takes.
type ImporterFunc func(path string) (*types.Package, error)

func (f ImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// Run runs the analyzers over each package and returns the findings no
// //geckolint:ignore comment waives, together with its own findings about
// waivers that are malformed, name no analyzer of the run or suppress
// nothing, sorted by file, line, column, analyzer and message.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		waivers := waiversOf(pkg)
		report := func(pos token.Pos, analyzer, message string) {
			p := pkg.Fset.Position(pos)
			out = append(out, Finding{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: analyzer, Message: message})
		}
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, report: func(pos token.Pos, message string) {
				tf := pkg.Fset.File(pos)
				if fw := waivers[tf]; fw != nil && fw.suppress(tf, pos, a.Name) {
					return
				}
				report(pos, a.Name, message)
			}})
		}
		// The audit's findings carry the name "waiver" and cannot be waived.
		for _, f := range pkg.Files {
			waivers[pkg.Fset.File(f.Pos())].audit(known, func(pos token.Pos, message string) {
				report(pos, "waiver", message)
			})
		}
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(
			strings.Compare(a.File, b.File),
			cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message),
		)
	})
	return out
}
