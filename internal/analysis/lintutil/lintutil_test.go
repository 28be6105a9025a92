package lintutil_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"geckoftl/internal/analysis/atest"
	"geckoftl/internal/analysis/detrand"
	"geckoftl/internal/analysis/lintutil"
)

// reportAt is a rule that files one finding at the start of each given line
// of the package's first file.
func reportAt(name string, lines ...int) *lintutil.Analyzer {
	return &lintutil.Analyzer{Name: name, Doc: "reports where it is told to", Run: func(pass *lintutil.Pass) {
		tf := pass.Fset.File(pass.Files[0].Pos())
		for _, line := range lines {
			pass.Reportf(&ast.Ident{NamePos: tf.LineStart(line)}, "finding")
		}
	}}
}

const multilineSrc = `package p

func f(xs []int) int {
	//geckolint:ignore detrand jitter only
	return pick(
		xs,
		g(),
	)
}

func h() int {
	x := g()
	return x
}
`

// TestIgnoredInStatementScope pins the gofmt-proof waiver rule: a comment
// above a multi-line statement waives a diagnostic on any of its lines —
// here line 7, three lines below the comment, where the old per-line rule
// (diagnostic line or the line above) could not see it.
func TestIgnoredInStatementScope(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", multilineSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, _ := lintutil.Check(fset, "p", []*ast.File{f}, nil) // pick and g are undefined, and beside the point
	got := lintutil.Run([]*lintutil.Package{pkg}, []*lintutil.Analyzer{
		reportAt("detrand", 5, 7, 12),
		reportAt("maporder", 7),
	})
	// Waived: detrand on the statement's first and third line. Not waived:
	// another analyzer on the same line, and detrand in a different
	// function's statements.
	want := []lintutil.Finding{
		{File: "x.go", Line: 7, Col: 1, Analyzer: "maporder", Message: "finding"},
		{File: "x.go", Line: 12, Col: 1, Analyzer: "detrand", Message: "finding"},
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %+v, want %+v", got, want)
	}
}

// TestWaiverAudit runs the fixture of waivers that break the promise
// docs/analysis.md makes of one — no reason, no such rule, nothing to
// suppress — beside one that keeps it and stays silent.
func TestWaiverAudit(t *testing.T) {
	atest.Run(t, "testdata", detrand.Analyzer, "waivers")
}
