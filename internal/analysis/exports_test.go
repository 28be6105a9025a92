package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"geckoftl/internal/analysis/lintutil"
	"geckoftl/internal/sim"
)

// testOnlyAllowed are the declarations that only tests use and that stay
// anyway, because a test in another package needs them and nothing outside
// the tests offers the same. Each carries its reason.
var testOnlyAllowed = map[string]string{
	"geckoftl/internal/analysis/atest.Run":    "the harness every analyzer's test drives its testdata through",
	"geckoftl/internal/checkpoint.Boundaries": "the cut points the root and ftl corruption tests tear a checkpoint at; only the codec knows its framing",
}

// TestNoTestOnlyExports fails on every declaration that no non-test file of
// the module uses: an exported one in internal/, an unexported one anywhere.
// Such code is kept alive by its tests alone. Delete it, or move it beside
// the tests that want it (an export_test.go). One declaration is seeded in
// memory, an unused exported method, and must be the survey's only finding
// besides the allowlist.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	const file = "internal/bitmap/bitmap.go"
	path, err := filepath.Abs(filepath.Join("../..", file))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seeded := append(src, "\n// Unused is called by nothing.\nfunc (b *Bitmap) Unused() int { return 0 }\n"...)
	unused, err := testOnly("../..", map[string][]byte{path: seeded})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(unused, "geckoftl/internal/bitmap.Bitmap.Unused") {
		t.Errorf("the seeded method Bitmap.Unused, used by nothing, is missing from the survey: %v", unused)
	}
	for key := range testOnlyAllowed {
		if !slices.Contains(unused, key) {
			t.Errorf("%s is allowlisted but has a non-test use or is gone: drop its entry", key)
		}
	}
	for _, key := range unused {
		if _, ok := testOnlyAllowed[key]; !ok && key != "geckoftl/internal/bitmap.Bitmap.Unused" {
			t.Errorf("%s has no use outside tests: delete it, or move it to the package's export_test.go", key)
		}
	}
}

// testOnly loads every package of the module under dir and returns, sorted,
// the declarations (path.Name or path.Type.Method) that no non-test file
// uses: exported ones in internal/ and unexported ones anywhere. A use is an
// identifier that resolves to the declaration (types.Info.Uses, which covers
// selections, promoted methods included). Two kinds of method are used
// without being named, and count as used:
//   - a method by which a type of the module implements an interface that a
//     package sees alongside the type (markSatisfied): String,
//     heap.Interface, the validity stores, the workload generators,
//     perfbench's targets and drivers;
//   - a niladic method of an experiment's row type, which geckobench renders
//     as a column by reflection (sim.WearPoint.HotPercent).
//
// Struct fields are not surveyed: JSON and the table renderer read them by
// reflection.
func testOnly(dir string, overlay map[string][]byte) ([]string, error) {
	pkgs, err := load(dir, overlay, []string{"./..."})
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	for _, c := range renderedColumns() {
		used[c] = true
	}
	for _, p := range pkgs {
		for id, obj := range p.TypesInfo.Uses {
			if !isTestFile(p, id.Pos()) {
				used[declKey(obj)] = true
			}
		}
		markSatisfied(p, used)
	}

	var unused []string
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.Pkg.Path(), "geckoftl/internal/")
		for id, obj := range p.TypesInfo.Defs {
			if obj == nil || isTestFile(p, id.Pos()) || !surveyed(obj) || (obj.Exported() && !internal) {
				continue
			}
			if key := declKey(obj); !used[key] {
				unused = append(unused, key)
			}
		}
	}
	slices.Sort(unused)
	return slices.Compact(unused), nil
}

// markSatisfied marks as used, for every interface p sees, the methods by
// which a type of the module that p sees implements it. p sees the types and
// interfaces it declares or imports, and the interfaces its non-test files
// spell out.
func markSatisfied(p *lintutil.Package, used map[string]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	for _, pkg := range append(p.Pkg.Imports(), p.Pkg) {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (pkg != p.Pkg && !tn.Exported()) || (pkg == p.Pkg && isTestFile(p, tn.Pos())) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && strings.HasPrefix(pkg.Path(), "geckoftl") {
				named = append(named, n)
			}
		}
	}
	for _, f := range p.Files {
		if isTestFile(p, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				ifaces = append(ifaces, p.TypesInfo.TypeOf(it).(*types.Interface))
			}
			return true
		})
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[declKey(obj)] = true
				}
			}
		}
	}
}

// surveyed reports whether obj is a declaration the survey judges: a
// package-level function, type, variable or constant, or a concrete method.
func surveyed(obj types.Object) bool {
	if name := obj.Name(); name == "_" || name == "init" || name == "main" {
		return false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			_, iface := recv.Type().Underlying().(*types.Interface)
			return !iface
		}
	}
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// declKey names a declaration the same way from its source and from another
// package's export data: path.Name, or path.Type.Method for a method.
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// renderedColumns names the methods geckobench renders as columns: the
// niladic, single-result methods other than String of each experiment's row
// type (cmd/geckobench/render.go, columns).
func renderedColumns() []string {
	var keys []string
	for _, e := range sim.Experiments() {
		t := reflect.TypeOf(e.NewRows()).Elem()
		if t.Kind() == reflect.Slice {
			t = t.Elem()
		}
		for i := 0; i < t.NumMethod(); i++ {
			if m := t.Method(i); m.Type.NumIn() == 1 && m.Type.NumOut() == 1 && m.Name != "String" {
				keys = append(keys, t.PkgPath()+"."+t.Name()+"."+m.Name)
			}
		}
	}
	return keys
}

func isTestFile(p *lintutil.Package, pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}
