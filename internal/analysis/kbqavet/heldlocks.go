package kbqavet

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// heldWalker tracks which mutexes are held through a function body —
// lexically and branch-sensitively — for locksync. A mutex is keyed by
// the printed receiver expression of its Lock call (e.g. "s.mu"), so the
// matching Unlock releases exactly what Lock acquired. Branch bodies get
// copies of the held set: an unlock on one branch doesn't release the
// mutex for code after the branch.
type heldWalker struct {
	info *types.Info
	// call sees every other call made while at least one mutex is held.
	call func(call *ast.CallExpr, held map[string]bool)
}

func (w *heldWalker) walkBody(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *heldWalker) walkStmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the mutex stays held for the
		// rest of the body, which is exactly what leaving it in the set
		// models. Other deferred calls run at return too — whether the
		// lock is held then depends on defer ordering; keep it simple and
		// only scan the argument expressions evaluated now.
		if _, kind := mutexOp(w.info, s.Call); kind == opUnlock {
			return
		}
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.walkBody(s.Body.List, maps.Clone(held))
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.walkBody(e.List, maps.Clone(held))
		case *ast.IfStmt:
			w.walkStmt(e, maps.Clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		w.walkBody(s.Body.List, maps.Clone(held))
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkBody(s.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		w.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, held)
	case *ast.BlockStmt:
		w.walkBody(s.List, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the critical section;
		// only its argument expressions evaluate now.
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs later, outside this lexical section
			case ast.Stmt:
				if n != s {
					// Nested statements of compound forms are handled by
					// the cases above; anything reaching here is a simple
					// statement whose sub-statements share the held set.
					w.walkStmt(n, held)
					return false
				}
			case *ast.CallExpr:
				w.checkCall(n, held)
			}
			return true
		})
	}
}

// walkClauses walks each case/comm clause body under its own copy of held.
func (w *heldWalker) walkClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.walkBody(c.Body, maps.Clone(held))
		case *ast.CommClause:
			w.walkBody(c.Body, maps.Clone(held))
		}
	}
}

// scanExpr visits the calls inside an expression (no lock-state changes
// can occur there that outlive the expression, but a call in a condition
// still runs under the lock).
func (w *heldWalker) scanExpr(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkCall(call, held)
		}
		return true
	})
}

// checkCall updates the held set for Lock/Unlock calls and hands every
// other call made inside a critical section to the analyzer.
func (w *heldWalker) checkCall(call *ast.CallExpr, held map[string]bool) {
	e, kind := mutexOp(w.info, call)
	switch {
	case kind == opLock:
		held[types.ExprString(e)] = true
	case kind == opUnlock:
		delete(held, types.ExprString(e))
	case len(held) > 0:
		w.call(call, held)
	}
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp classifies call as a Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns the mutex receiver expression.
func mutexOp(info *types.Info, call *ast.CallExpr) (ast.Expr, mutexOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var kind mutexOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return nil, opNone
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, opNone
	}
	if !isMethodOf(fn, "Mutex") && !isMethodOf(fn, "RWMutex") {
		return nil, opNone
	}
	return sel.X, kind
}

// heldNames lists the held set, sorted for stable diagnostics.
func heldNames(held map[string]bool) string {
	return strings.Join(slices.Sorted(maps.Keys(held)), ", ")
}
