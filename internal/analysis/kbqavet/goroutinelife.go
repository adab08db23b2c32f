package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// GoroutineLife checks that every goroutine spawned in library code has
// a provable termination signal. PR 8 grew exactly the failure mode:
// a per-connection handler looping until the peer hangs up keeps
// running after Close, touching a store the owner is about to unmap —
// the use-after-unmap race the shardrpc drain fix closes. The rule:
//
//   - a spawned body with an unbounded `for {}` loop must also contain
//     a WaitGroup.Done (the owner can drain it), or a select with a
//     receive case (a ctx.Done()/stop-channel can end it); ranging over
//     a channel counts — close(ch) is its stop signal;
//   - bodies without unbounded loops terminate by construction and
//     pass.
//
// Channel sends inside spawned closures must be select-guarded or go to
// a channel the spawning function made with a buffer (the fan-out shape
// of shardrpc's hedged call: results sized to len(order) so losers
// never block). An unguarded send on an unbuffered or unresolvable
// channel blocks forever once the receiver leaves — the classic
// goroutine leak.
//
// Package main is exempt (a process's goroutines die with it), as are
// _test.go files. Spawns whose body the analyzer cannot see (external
// functions, function values) are skipped: the suite flags what it can
// prove, and same-package named functions resolve through the shared
// call-graph decls.
var GoroutineLife = &analysis.Analyzer{
	Name: "goroutinelife",
	Doc: "every goroutine in library code needs a provable termination signal; spawned sends must not block forever\n\n" +
		"Unbounded loops need WaitGroup.Done or a stop-channel select; closure sends need a buffer sized to the fan-out or a select guard. " +
		"Deliberate process-lifetime goroutines carry //kbqa:nolint goroutinelife with justification.",
	Run: runGoroutineLife,
}

func runGoroutineLife(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	g := callgraph.New(pass)
	for _, obj := range g.Funcs {
		decl := g.Decls[obj]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g, decl.Body, gs)
			return true
		})
	}
	return nil
}

// checkGoStmt verifies one `go` statement: the spawned body's
// termination signal, and (for closures) its channel sends. enclosing is
// the body of the top-level function containing the spawn, searched for
// the buffered make() that justifies a send.
func checkGoStmt(pass *analysis.Pass, g *callgraph.Graph, enclosing *ast.BlockStmt, gs *ast.GoStmt) {
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
		checkSpawnedSends(pass, enclosing, body)
	} else if fn := callgraph.CalleeFunc(pass.TypesInfo, gs.Call); fn != nil {
		if decl, ok := g.Decls[fn]; ok {
			body = decl.Body
		}
	}
	if body == nil {
		// External or dynamic target: nothing to prove against.
		return
	}
	if unboundedLoop(body) && !terminationSignal(pass.TypesInfo, body) {
		pass.Reportf(gs.Pos(), "goroutine has no provable termination signal: unbounded for-loop without WaitGroup.Done or a stop-channel select; bound the loop or wire a stop signal")
	}
}

// unboundedLoop reports whether body (outside nested function literals)
// contains a `for { ... }` with no condition. Conditioned loops and
// range loops are treated as bounded — a range over a channel ends at
// close(ch), which is a stop signal in its own right.
func unboundedLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// terminationSignal reports whether body (outside nested function
// literals) contains a WaitGroup.Done call or a select with a receive
// case — the two ways an owner can end or drain the goroutine.
func terminationSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if fn := callgraph.CalleeFunc(info, n); fn != nil && fn.Name() == "Done" && isMethodOf(fn, "WaitGroup") {
				found = true
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if commReceives(cc.Comm) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// commReceives reports whether a select comm clause is a receive.
func commReceives(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		_, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			_, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
			return ok
		}
	}
	return false
}

// checkSpawnedSends flags channel sends inside a spawned closure that
// can block forever: not inside a select, and not on a channel the
// enclosing function provably made with a buffer.
func checkSpawnedSends(pass *analysis.Pass, enclosing *ast.BlockStmt, lit *ast.BlockStmt) {
	var walk func(n ast.Node, inSelect bool)
	walk = func(n ast.Node, inSelect bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					// The comm op itself is guarded; the case body is
					// ordinary code again.
					if cc.Comm != nil {
						walk(cc.Comm, true)
					}
					for _, s := range cc.Body {
						walk(s, false)
					}
				}
			}
			return
		case *ast.SendStmt:
			if !inSelect && !bufferedChannel(pass.TypesInfo, enclosing, n.Chan) {
				pass.Reportf(n.Pos(), "channel send in spawned goroutine can block forever; size the channel to the fan-out or guard the send with select")
			}
			return
		}
		// Generic recursion over children.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch c.(type) {
			case *ast.FuncLit, *ast.SelectStmt, *ast.SendStmt:
				walk(c, inSelect)
				return false
			}
			return true
		})
	}
	for _, s := range lit.List {
		walk(s, false)
	}
}

// bufferedChannel reports whether ch resolves to a variable the
// enclosing body binds with make(chan T, n) for a non-zero capacity —
// the buffered-to-fanout shape. A capacity that isn't a literal (e.g.
// len(order)) counts: sizing to a runtime fan-out is exactly the
// sanctioned pattern.
func bufferedChannel(info *types.Info, enclosing *ast.BlockStmt, ch ast.Expr) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	buffered := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return !buffered
		}
		for i, lhs := range assign.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || (info.Defs[lid] != obj && info.Uses[lid] != obj) {
				continue
			}
			call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "make" {
				continue
			}
			if len(call.Args) < 2 {
				continue
			}
			if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				continue
			}
			buffered = true
		}
		return !buffered
	})
	return buffered
}
