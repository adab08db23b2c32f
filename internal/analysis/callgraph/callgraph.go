// Package callgraph is the shared facts layer under the kbqa-vet
// analyzers: a same-package call graph with per-function summaries and
// fixpoint propagation (extracted from locksync, which grew it first),
// plus a branch-sensitive path walker for lifecycle obligations
// (extracted from spanend, see paths.go).
//
// The graph is deliberately package-local — cross-package reasoning
// belongs to each package's own vet unit, and the unitchecker driver
// exports no facts — and deliberately syntactic: an edge exists when a
// body textually calls a same-package function or method. Methods of
// generic types are normalized to their Origin, so facts keyed by the
// declaration object match call sites on any instantiation.
package callgraph

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Graph holds one package's same-package call graph: every function
// declared with a body (test files excluded), the function object it
// defines, and the same-package functions it calls.
type Graph struct {
	// Decls maps each function object to its declaration, in source
	// order via Funcs.
	Decls map[*types.Func]*ast.FuncDecl
	// Calls maps a caller to the same-package functions its body calls
	// (duplicates preserved; callers iterate, they don't count).
	Calls map[*types.Func][]*types.Func
	// Funcs lists the declared functions in source order, for
	// deterministic iteration.
	Funcs []*types.Func
}

// New builds the call graph of the pass's package, skipping _test.go
// files (the suite's invariants govern production code).
func New(pass *analysis.Pass) *Graph {
	g := &Graph{
		Decls: make(map[*types.Func]*ast.FuncDecl),
		Calls: make(map[*types.Func][]*types.Func),
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			g.Decls[obj] = fd
			g.Funcs = append(g.Funcs, obj)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg {
					g.Calls[obj] = append(g.Calls[obj], fn)
				}
				return true
			})
		}
	}
	return g
}

// CalleeFunc resolves a call expression to the function or method object
// it invokes, or nil for calls through function-typed values, builtins,
// and type conversions. Methods of generic types resolve to their
// Origin, so facts keyed by the declaration object match call sites on
// any instantiation.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		if o := fn.Origin(); o != nil {
			fn = o
		}
	}
	return fn
}

// Propagate spreads string facts ("why this function counts") from
// callees to callers until fixpoint: a caller with no fact of its own
// inherits via(callee, fact) from the first fact-bearing callee. This is
// the reached-by propagation locksync uses for "performs blocking I/O";
// direct is not modified.
func Propagate(g *Graph, direct map[*types.Func]string, via func(callee *types.Func, why string) string) map[*types.Func]string {
	facts := make(map[*types.Func]string, len(direct))
	for fn, why := range direct {
		facts[fn] = why
	}
	for changed := true; changed; {
		changed = false
		for _, caller := range g.Funcs {
			if _, done := facts[caller]; done {
				continue
			}
			for _, callee := range g.Calls[caller] {
				if why, ok := facts[callee]; ok {
					facts[caller] = via(callee, why)
					changed = true
					break
				}
			}
		}
	}
	return facts
}
