package lintutil

import (
	"go/ast"
	"go/token"
	"strings"
)

// waiver is one suppression comment of the form
//
//	//geckolint:ignore <name>[,<name>...] <reason>
//
// It waives the named analyzers' findings in one statement: the comment may
// sit on the finding's line, the line directly above it, anywhere within the
// innermost statement enclosing the finding, or on the line directly above
// that statement. gofmt re-attaching a comment within a multi-line statement
// therefore cannot silently drop a waiver. Suppressions stay per-analyzer so
// a waiver cannot widen to other rules.
type waiver struct {
	pos    token.Pos
	line   int
	names  []string
	used   []bool // per name: it has suppressed a finding
	reason bool
}

// fileWaivers is one file of the package under analysis and the waivers in it.
type fileWaivers struct {
	file    *ast.File
	waivers []*waiver
}

func waiversOf(pkg *Package) map[*token.File]*fileWaivers {
	byFile := make(map[*token.File]*fileWaivers, len(pkg.Files))
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		fw := &fileWaivers{file: f}
		byFile[tf] = fw
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//geckolint:ignore")
				if !ok {
					continue
				}
				w := &waiver{pos: c.Pos(), line: tf.Line(c.Pos())}
				if fields := strings.Fields(text); len(fields) > 0 {
					w.names = strings.Split(fields[0], ",")
					w.used = make([]bool, len(w.names))
					w.reason = len(fields) > 1
				}
				fw.waivers = append(fw.waivers, w)
			}
		}
	}
	return byFile
}

// suppress reports whether a waiver in the file waives the named analyzer's
// finding at pos, and marks every waiver that does as used.
func (fw *fileWaivers) suppress(tf *token.File, pos token.Pos, name string) bool {
	line := tf.Line(pos)
	lo, hi := line-1, line
	if start, end, ok := enclosingStmtSpan(fw.file, pos); ok {
		lo = min(lo, tf.Line(start)-1)
		hi = max(hi, tf.Line(end))
	}
	waived := false
	for _, w := range fw.waivers {
		if w.line < lo || w.line > hi {
			continue
		}
		for i, n := range w.names {
			if n == name {
				w.used[i], waived = true, true
			}
		}
	}
	return waived
}

// audit reports the waivers that do not do what docs/analysis.md promises of
// one: name a rule that is in the suite, say why the finding is acceptable,
// and suppress a finding. It runs once every analyzer in known has reported.
func (fw *fileWaivers) audit(known map[string]bool, report func(pos token.Pos, message string)) {
	for _, w := range fw.waivers {
		if len(w.names) == 0 {
			report(w.pos, "waiver names no rule; write //geckolint:ignore <rule>[,<rule>...] <reason>")
			continue
		}
		if !w.reason {
			report(w.pos, "waiver gives no reason; say after the rule name why the finding is acceptable")
		}
		for i, n := range w.names {
			switch {
			case !known[n]:
				report(w.pos, "waiver names "+n+", which is not a geckolint rule, so it waives nothing")
			case !w.used[i]:
				report(w.pos, "waiver of "+n+" suppresses nothing: "+n+" reports no finding in this statement; delete the waiver")
			}
		}
	}
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
