package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// hostGoroutinesAllowed are the functions whose go statements stay, keyed
// "file Func" (or "file Type.Method") from the module root. Each carries its
// reason.
var hostGoroutinesAllowed = map[string]string{
	"internal/perfbench/layers.go isolated.flash": "perfbench's parallel flash benchmark times two goroutines writing one device at once; that contention is what it measures",
}

// TestNoHostGoroutines fails on every go statement in a non-test file of the
// root package or of internal/. A shard's parallelism lives in its dies'
// virtual clocks, not in host goroutines: a batch, a queue submission and a
// recovery all run on their caller's goroutine, so a goroutine that stands
// between a caller and a shard only adds host cost and nondeterminism.
// Examples and the analyzers' testdata fixtures are out of scope.
func TestNoHostGoroutines(t *testing.T) {
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			inScope := rel == "." || rel == "internal" || strings.HasPrefix(rel, "internal/")
			if rel != "." && (!inScope || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			key := rel + " " + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if _, ok := hostGoroutinesAllowed[key]; ok {
					found[key] = true
				} else {
					t.Errorf("%s:%d: go statement in %s: run the work on the calling goroutine",
						rel, fset.Position(g.Pos()).Line, declName(decl))
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range hostGoroutinesAllowed {
		if !found[key] {
			t.Errorf("%s is allowlisted but starts no goroutine: drop its entry", key)
		}
	}
}

// declName names a top-level declaration: Func, Type.Method, or "" for a
// declaration that is not a function.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
