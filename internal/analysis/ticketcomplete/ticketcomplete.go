// Package ticketcomplete defines an analyzer that verifies every
// queue.Ticket created in a function is completed or handed off on all
// return paths.
//
// A Ticket is a future: the submitter blocks on Done/Wait until the worker
// completes it. A ticket that is created and then dropped on an
// early-return path leaves that submitter blocked forever — the leak shape
// PR 9's drain hammer only finds probabilistically, because it needs the
// shedding/cancellation path to actually be taken under the race detector.
// This analyzer finds it structurally.
//
// A "ticket type" is any named struct type called Ticket with a field of
// type chan struct{} (the done channel). For each function, the analyzer
// tracks every ticket-typed composite literal bound to a local variable and
// walks the function's control flow path-sensitively. On every path from
// creation to a return statement (or to the end of the function body), one
// of the following must happen before the return:
//
//   - the ticket is completed: its channel field is closed, or one of its
//     fields is assigned (the worker-side finish shape);
//   - the ticket is handed off: passed to a function call, stored into a
//     struct, map, slice or channel, captured by a function literal,
//     aliased, or returned. From that point the receiving code owns
//     completion, and intraprocedural tracking honestly ends.
//
// Branches are merged pessimistically (a ticket must be dealt with on every
// branch), loop bodies optimistically (dealing with it inside the loop
// counts), and break/continue/goto paths are left to the returns they reach.
package ticketcomplete

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check that every queue.Ticket created in a function is completed or handed off on all return paths

A created ticket someone may wait on must, on every path to every return,
either be completed (done channel closed, outcome field assigned) or handed
off (passed to a call, stored, sent, captured, or returned). A path that
drops it leaves the waiter blocked forever.`

// Analyzer is the ticketcomplete analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "ticketcomplete",
	Doc:  doc,
	Run:  run,
}

func run(pass *lintutil.Pass) {
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return
		}
		w := &walker{pass: pass, leaks: map[types.Object]token.Pos{}}
		live := map[types.Object]token.Pos{}
		terminated := w.stmts(body.List, live)
		if !terminated {
			w.leak(live)
		}
		w.report()
	})
}

// isTicketType reports whether t (pointers dereferenced) is a named struct
// type called Ticket carrying a chan struct{} field.
func isTicketType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Ticket" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if ch, ok := st.Field(i).Type().Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

// walker carries the per-function analysis state.
type walker struct {
	pass  *lintutil.Pass
	leaks map[types.Object]token.Pos // ticket var -> creation site, first leak only
}

// leak records every still-live ticket as leaked at its creation site.
func (w *walker) leak(live map[types.Object]token.Pos) {
	for obj, pos := range live {
		if _, dup := w.leaks[obj]; !dup {
			w.leaks[obj] = pos
		}
	}
}

// report files the collected leaks in deterministic position order.
func (w *walker) report() {
	type finding struct {
		obj types.Object
		pos token.Pos
	}
	fs := make([]finding, 0, len(w.leaks))
	for obj, pos := range w.leaks {
		fs = append(fs, finding{obj, pos})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
	for _, f := range fs {
		w.pass.Reportf(posRange(f.pos),
			"ticket %s is neither completed (close/field assignment) nor handed off on every return path: a waiter on it blocks forever",
			f.obj.Name())
	}
}

// stmts walks a statement list, mutating live, and reports tickets still
// live at each return. The returned flag says whether every path through the
// list terminates (return, panic, or branch away) before reaching its end.
func (w *walker) stmts(list []ast.Stmt, live map[types.Object]token.Pos) bool {
	for _, s := range list {
		if w.stmt(s, live) {
			return true
		}
	}
	return false
}

// stmt walks one statement; the return value is "this path terminates here".
func (w *walker) stmt(s ast.Stmt, live map[types.Object]token.Pos) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		w.handleIn(st, live)
		w.leak(live)
		return true
	case *ast.BranchStmt:
		// break/continue/goto: the path leaves this region. Conservatively
		// stop tracking rather than inventing leaks at constructs we do not
		// model.
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && isPanic(w.pass.TypesInfo, call) {
			w.handleIn(st, live)
			return true
		}
		w.handleIn(st, live)
	case *ast.AssignStmt:
		w.assign(st, live)
	case *ast.DeclStmt:
		w.decl(st, live)
	case *ast.IfStmt:
		w.handleIn(st.Init, live)
		w.handleIn(st.Cond, live)
		thenLive := copyLive(live)
		thenTerm := w.stmts(st.Body.List, thenLive)
		elseLive := copyLive(live)
		elseTerm := false
		if st.Else != nil {
			elseTerm = w.stmt(st.Else, elseLive)
		}
		merge(live, thenLive, thenTerm, elseLive, elseTerm)
		return thenTerm && elseTerm && st.Else != nil
	case *ast.BlockStmt:
		return w.stmts(st.List, live)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, live)
	case *ast.ForStmt:
		w.handleIn(st.Init, live)
		w.handleIn(st.Cond, live)
		w.handleIn(st.Post, live)
		w.stmts(st.Body.List, live) // optimistic: one pass, handling inside counts
	case *ast.RangeStmt:
		w.handleIn(st.X, live)
		w.stmts(st.Body.List, live)
	case *ast.SwitchStmt:
		w.handleIn(st.Init, live)
		w.handleIn(st.Tag, live)
		w.clauses(st.Body, live, hasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		w.handleIn(st.Init, live)
		w.handleIn(st.Assign, live)
		w.clauses(st.Body, live, hasDefault(st.Body))
	case *ast.SelectStmt:
		// A select always executes exactly one of its cases.
		return w.clauses(st.Body, live, true)
	default:
		// SendStmt, GoStmt, DeferStmt, IncDecStmt, EmptyStmt...
		w.handleIn(s, live)
	}
	return false
}

// clauses walks each case/comm clause of body on a copy of live and merges
// the survivors. exhaustive says the clause list covers every path (a
// default case, or a select). It returns whether all paths terminate.
func (w *walker) clauses(body *ast.BlockStmt, live map[types.Object]token.Pos, exhaustive bool) bool {
	allTerm := len(body.List) > 0
	merged := map[types.Object]token.Pos{}
	if !exhaustive {
		for obj, pos := range live {
			merged[obj] = pos
		}
	}
	for _, c := range body.List {
		clauseLive := copyLive(live)
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.handleInExpr(e, clauseLive)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				w.handleIn(cc.Comm, clauseLive)
			}
			stmts = cc.Body
		}
		if w.stmts(stmts, clauseLive) {
			continue
		}
		allTerm = false
		for obj, pos := range clauseLive {
			merged[obj] = pos
		}
	}
	clearAndCopy(live, merged)
	return exhaustive && allTerm
}

// assign processes creations (ticket composite literal bound to a local
// variable) and handling events in an assignment.
func (w *walker) assign(st *ast.AssignStmt, live map[types.Object]token.Pos) {
	// A single-value assignment of a fresh ticket literal to a plain local
	// identifier starts tracking. Everything else is a handling event for
	// any tickets it mentions.
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			if !isTicketLiteral(w.pass.TypesInfo, rhs) {
				continue
			}
			id, ok := st.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := w.pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			// The literal's own element expressions may mention other
			// tickets (nesting hands them off); scan them first.
			w.handleInExpr(rhs, live)
			live[obj] = rhs.Pos()
		}
	}
	for i, rhs := range st.Rhs {
		if len(st.Lhs) == len(st.Rhs) && isTicketLiteral(w.pass.TypesInfo, rhs) {
			if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				continue // the creation handled above
			}
		}
		w.handleInExpr(rhs, live)
	}
	for _, lhs := range st.Lhs {
		// Writing a ticket's field (tk.err = ...) completes it; writing
		// through any other selector/index may store into it — scan the
		// whole lvalue.
		w.handleInExpr(lhs, live)
	}
}

// decl processes var declarations inside a function body.
func (w *walker) decl(st *ast.DeclStmt, live map[types.Object]token.Pos) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			if isTicketLiteral(w.pass.TypesInfo, v) && i < len(vs.Names) {
				if obj := w.pass.TypesInfo.ObjectOf(vs.Names[i]); obj != nil {
					w.handleInExpr(v, live)
					live[obj] = v.Pos()
					continue
				}
			}
			w.handleInExpr(v, live)
		}
	}
}

// handleIn scans a statement (or nil) for handling events and removes the
// handled tickets from live.
func (w *walker) handleIn(n ast.Node, live map[types.Object]token.Pos) {
	if n == nil || len(live) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			w.callEvent(e, live)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				w.mentions(el, live)
			}
		case *ast.SendStmt:
			w.mentions(e.Value, live)
		case *ast.AssignStmt:
			for _, r := range e.Rhs {
				w.mentions(r, live)
			}
			for _, l := range e.Lhs {
				w.fieldWrite(l, live)
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				w.mentions(r, live)
			}
		case *ast.FuncLit:
			w.mentions(e.Body, live)
			return false
		}
		return true
	})
}

// handleInExpr is handleIn for expressions.
func (w *walker) handleInExpr(e ast.Expr, live map[types.Object]token.Pos) {
	if e == nil {
		return
	}
	w.handleIn(e, live)
}

// callEvent processes one call: close(tk.done) completes the named ticket;
// a ticket passed in an argument is handed off.
func (w *walker) callEvent(call *ast.CallExpr, live map[types.Object]token.Pos) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if b, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "close" {
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
				if obj := lintutil.ObjectOf(w.pass.TypesInfo, sel.X); obj != nil {
					delete(live, obj)
					return
				}
			}
		}
	}
	for _, arg := range call.Args {
		w.mentions(arg, live)
	}
}

// fieldWrite treats an assignment through a ticket selector (tk.err = ...)
// as completing the ticket, and any other non-identifier lvalue mentioning
// the ticket (*p = ..., arr[tk.idx] = ...) as a handoff. A plain identifier
// lvalue overwrites the variable and is no event at all — in particular the
// fresh creation's own left-hand side must not count as handling.
func (w *walker) fieldWrite(lhs ast.Expr, live map[types.Object]token.Pos) {
	lhs = ast.Unparen(lhs)
	if _, ok := lhs.(*ast.Ident); ok {
		return
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if obj := lintutil.ObjectOf(w.pass.TypesInfo, sel.X); obj != nil {
			delete(live, obj)
			return
		}
	}
	w.mentions(lhs, live)
}

// mentions removes from live every ticket referenced anywhere under n: the
// reference escapes this function's bookkeeping (argument, store, capture,
// alias), so the receiver owns completion now.
func (w *walker) mentions(n ast.Node, live map[types.Object]token.Pos) {
	if n == nil || len(live) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.ObjectOf(id); obj != nil {
				delete(live, obj)
			}
		}
		return true
	})
}

// isTicketLiteral reports whether e is Ticket{...} or &Ticket{...}.
func isTicketLiteral(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	t := info.TypeOf(cl)
	return t != nil && isTicketType(t)
}

// hasDefault reports whether a switch body contains a default clause —
// without one, the fall-through path skips every case and its handling.
func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "panic"
}

func copyLive(live map[types.Object]token.Pos) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos, len(live))
	for k, v := range live {
		out[k] = v
	}
	return out
}

// merge replaces live with the union of the surviving branch states:
// a ticket is still live after the construct if any non-terminated branch
// left it live.
func merge(live map[types.Object]token.Pos, a map[types.Object]token.Pos, aTerm bool, b map[types.Object]token.Pos, bTerm bool) {
	merged := map[types.Object]token.Pos{}
	if !aTerm {
		for k, v := range a {
			merged[k] = v
		}
	}
	if !bTerm {
		for k, v := range b {
			merged[k] = v
		}
	}
	clearAndCopy(live, merged)
}

func clearAndCopy(dst, src map[types.Object]token.Pos) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// posRange adapts a single position to an ast.Node.
type posRange token.Pos

func (p posRange) Pos() token.Pos { return token.Pos(p) }
func (p posRange) End() token.Pos { return token.Pos(p) }
