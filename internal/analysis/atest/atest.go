// Package atest is a minimal analysistest-style harness for the geckolint
// analyzers: load a fixture package from testdata/src/<path>, type-check it,
// run an analyzer over it through the same lintutil.Run the command uses —
// waivers included — and compare the findings against `// want` comments.
//
// Fixture convention (same as analysistest):
//
//	testdata/src/<importpath>/*.go
//
// where a line expecting diagnostics carries a trailing comment of one or
// more backquoted regular expressions:
//
//	rand.Intn(6) // want `global math/rand`
//
// (`/* want ... */` works too, for a line that ends in a comment of its own.)
// Each regexp must match a diagnostic reported on that line, and every
// diagnostic must be matched by some regexp. Imports between fixture
// packages resolve inside testdata/src; standard-library imports resolve
// from source; anything else resolves to an empty placeholder package so
// fixtures can import paths that only need to exist as strings (the
// apiboundary fixtures).
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"geckoftl/internal/analysis/lintutil"
)

// Run checks the analyzer against each fixture package path under
// testdata/src.
func Run(t *testing.T, testdata string, a *lintutil.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			t.Helper()
			ld := &loader{
				fset:     token.NewFileSet(),
				srcRoot:  filepath.Join(testdata, "src"),
				packages: map[string]*lintutil.Package{},
			}
			ld.std = importer.ForCompiler(ld.fset, "source", nil)
			pkg, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			findings := lintutil.Run([]*lintutil.Package{pkg}, []*lintutil.Analyzer{a})
			checkFindings(t, ld.fset, pkg.Files, findings)
		})
	}
}

// loader resolves fixture imports: testdata/src first, the standard library
// second, an empty placeholder package last.
type loader struct {
	fset     *token.FileSet
	srcRoot  string
	std      types.Importer
	packages map[string]*lintutil.Package
}

func (ld *loader) load(path string) (*lintutil.Package, error) {
	if pkg, ok := ld.packages[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// Lenient: placeholder imports produce benign type errors.
	pkg, _ := lintutil.Check(ld.fset, path, files, lintutil.ImporterFunc(ld.importPkg))
	ld.packages[path] = pkg
	return pkg, nil
}

func (ld *loader) importPkg(path string) (*types.Package, error) {
	// Fixture-local packages shadow everything else.
	if _, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err == nil {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	if pkg, err := ld.std.Import(path); err == nil {
		return pkg, nil
	}
	// Placeholder: enough for `import _ "..."` fixtures whose path is the
	// only thing under test.
	name := path[strings.LastIndex(path, "/")+1:]
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg, nil
}

// expectation is one backquoted regexp from a want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]*)`")

// checkFindings matches the findings against want comments.
func checkFindings(t *testing.T, fset *token.FileSet, files []*ast.File, findings []lintutil.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					if text, ok = strings.CutPrefix(c.Text, "/* want "); !ok {
						continue
					}
				}
				pos := fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: malformed want comment (no backquoted regexp): %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != f.File || w.line != f.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", f.File, f.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
