// Package lockorder defines an analyzer that builds a lock acquisition
// graph over a package's mutexes and reports inconsistent acquisition
// orders — the deadlock shape AST-level pairing checks cannot see.
//
// Every mutex expression is mapped to a type-driven lock class: the struct
// field that holds it (qualified by its owning named type, e.g.
// "Engine.powerMu" or "shardQueue.mu") or the package-level variable. Two
// instances of the same field share a class, so the per-shard mutexes of a
// sharded engine form one class. Within each function the analyzer replays
// Lock/RLock/Unlock/RUnlock events in source order, tracking the held set
// (deferred unlocks hold to function end), and records an edge A→B whenever
// B is acquired while A is held. Function literals are separate scopes: a
// goroutine body starts with nothing held.
//
// After the whole package is scanned, two findings are reported:
//
//   - an order inversion: both A→B and B→A edges exist. Whichever order is
//     struck second in a deadlock is hit first in production; the analyzer
//     reports the edge at the lexicographically later class pair and names
//     the opposing site, so one waiver (with the declared canonical order as
//     its reason) settles the pair.
//   - a self-edge: a second acquisition of the same lock class while one
//     instance is already held. With Go's non-reentrant mutexes this is
//     either a self-deadlock (same instance) or an unordered instance pair
//     (two shards locked in arbitrary order), both worth a look.
//
// The replay is intraprocedural and source-ordered — it does not chase
// calls, and a conditional unlock is treated as releasing. Those are the
// same honest approximations lockdiscipline makes; the waiver escape hatch
// covers the deliberate exceptions.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `check lock acquisition order consistency across the package

Builds a lock acquisition graph keyed by type-driven lock classes (struct
field or package-level variable holding the mutex) and reports pairs of
classes acquired in both orders, plus nested acquisitions of the same class.
Either shape is a latent deadlock under the right interleaving.`

// Analyzer is the lockorder analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "lockorder",
	Doc:  doc,
	Run:  run,
}

// edge is the first-seen site of an acquisition of to while from was held.
type edge struct {
	pos   token.Pos
	other token.Pos // where from was acquired
}

func run(pass *lintutil.Pass) {
	g := map[string]map[string]edge{}
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		scanScope(pass, fn.Body, g)
	})
	report(pass, g)
}

// event is one lock-affecting call, replayed in source order.
type event struct {
	pos    token.Pos
	class  string
	kind   string // Lock, RLock, Unlock, RUnlock
	defer_ bool
}

// scanScope replays the lock events of one function scope and records
// acquisition edges into g. Nested function literals are scanned as fresh
// scopes (their bodies run with nothing held by this frame — if they run at
// all, it is on another goroutine or after a handoff).
func scanScope(pass *lintutil.Pass, body ast.Node, g map[string]map[string]edge) {
	var events []event
	var nested []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, lit.Body)
			return false
		}
		deferred := false
		call, ok := n.(*ast.CallExpr)
		if !ok {
			if d, isDefer := n.(*ast.DeferStmt); isDefer {
				call, deferred = d.Call, true
			} else {
				return true
			}
		}
		kind := lockCallKind(pass, call)
		if kind == "" {
			return true
		}
		class := classOf(pass.TypesInfo, call.Fun.(*ast.SelectorExpr).X)
		if class == "" {
			return true
		}
		events = append(events, event{pos: call.Pos(), class: class, kind: kind, defer_: deferred})
		return !deferred // a defer's call arguments cannot lock
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]token.Pos{} // class -> acquisition site
	deferredHold := map[string]bool{}
	for _, ev := range events {
		switch ev.kind {
		case "Lock", "RLock":
			if ev.defer_ {
				continue // defer x.Lock() is almost certainly a bug, but not an ordering event
			}
			for from, fromPos := range held {
				addEdge(g, from, ev.class, ev.pos, fromPos)
			}
			if _, already := held[ev.class]; !already {
				held[ev.class] = ev.pos
			}
		case "Unlock", "RUnlock":
			if ev.defer_ {
				deferredHold[ev.class] = true
				continue
			}
			if !deferredHold[ev.class] {
				delete(held, ev.class)
			}
		}
	}
	for _, b := range nested {
		scanScope(pass, b, g)
	}
}

// addEdge records the first occurrence of acquiring to while from is held.
// A self-edge (from == to) is kept too: it is reported directly.
func addEdge(g map[string]map[string]edge, from, to string, pos, fromPos token.Pos) {
	m := g[from]
	if m == nil {
		m = map[string]edge{}
		g[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = edge{pos: pos, other: fromPos}
	}
}

// report walks the completed graph deterministically and files diagnostics
// for self-edges and inverted pairs.
func report(pass *lintutil.Pass, g map[string]map[string]edge) {
	froms := make([]string, 0, len(g))
	for from := range g {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(g[from]))
		for to := range g[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := g[from][to]
			if from == to {
				pass.Reportf(posRange(e.pos),
					"%s acquired while another %s is already held (acquired at %s): nested same-class locking deadlocks unless instance order is fixed",
					from, from, pass.Fset.Position(e.other))
				continue
			}
			back, inverted := g[to][from]
			if !inverted || from > to {
				continue // report each pair once, at the lexicographically smaller from
			}
			pass.Reportf(posRange(back.pos),
				"%s acquired while holding %s, but %s is acquired while holding %s at %s: inconsistent lock order",
				from, to, to, from, pass.Fset.Position(e.pos))
		}
	}
}

// posRange adapts a single position to an ast.Node.
type posRange token.Pos

func (p posRange) Pos() token.Pos { return token.Pos(p) }
func (p posRange) End() token.Pos { return token.Pos(p) }

// lockCallKind classifies a call as Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, or "" otherwise.
func lockCallKind(pass *lintutil.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name()
	}
	return ""
}

// classOf maps a mutex-valued expression to its lock class: "Type.field" for
// a struct field (however the instance was reached), "pkg.var" for a
// package-level variable, or "" when the expression is not classifiable
// (locals, map values, interface calls).
func classOf(info *types.Info, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := namedOwner(sel.Recv()); owner != "" {
				return owner + "." + sel.Obj().Name()
			}
			return ""
		}
		// pkg.Var through a package selector.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && isPackageLevel(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && isPackageLevel(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.IndexExpr:
		// locks[i].Lock() on a slice/array of a named element type.
		t := info.TypeOf(e)
		if t != nil {
			if owner := namedOwner(t); owner != "" {
				return owner + "[i]"
			}
		}
	}
	return ""
}

// namedOwner returns the name of the named type behind t (pointers
// dereferenced), or "" for anonymous types.
func namedOwner(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
			continue
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
