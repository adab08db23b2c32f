// Package kbqavet holds the eight project-specific analyzers behind
// cmd/kbqa-vet. Each encodes an invariant a prior PR established in
// review and that the runtime's correctness now depends on:
//
//	ctxpropagate  caller context is threaded end to end (PR 3/6)
//	locksync      no blocking I/O under the append mutex (PR 5)
//	spanend       every started span/trace is ended on every path (PR 6)
//	structuredlog all logging goes through obs.Logger (PR 6)
//	goroutinelife goroutines have provable termination signals (PR 8/10)
//	mustclose     acquired resources are closed on all paths (PR 9/10)
//	lockorder     lock acquisition order is acyclic package-wide (PR 10)
//	errsink       fsync/rename/Close/encode errors are never discarded (PR 10)
//
// The lifecycle analyzers share the callgraph facts layer
// (internal/analysis/callgraph): the same-package call-graph fixpoint
// locksync grew and the branch-sensitive path walker spanend grew.
// locksync and lockorder share one held-lock statement walker
// (heldWalker, heldlocks.go).
//
// Suppression: //kbqa:nolint <analyzer> — justification required by
// convention, enforced by review; a directive that suppresses nothing
// is itself flagged by the framework's "nolint" meta-check.
package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzers returns the full suite in a fixed, documented order. The
// registry meta-test pins this set; adding an analyzer means updating
// the README section too.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxPropagate,
		LockSync,
		SpanEnd,
		StructuredLog,
		GoroutineLife,
		MustClose,
		LockOrder,
		ErrSink,
	}
}

// calleeFunc resolves a call expression to the function or method object
// it invokes; it lives in the shared callgraph facts layer now
// (generics Origin() normalization included) and keeps its local name
// for the analyzers here.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return callgraph.CalleeFunc(info, call)
}

// isPkgFunc reports whether fn is the named function of the named
// package (by import path).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
