package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// LockSync flags blocking I/O — (*os.File).Sync, os.Rename, anything in
// package net — executed while a sync.Mutex/RWMutex is held. PR 5's core
// invariant: the persist.go append mutex protects an in-memory rotation,
// so fsync and rename must happen off the critical section or every
// writer stalls behind the disk. The check is package-local and
// transitive: a function that (directly or through same-package calls)
// performs blocking I/O must not be called under a lock.
//
// A deliberate exception (e.g. rotateLocked's O(1) metadata rename)
// carries //kbqa:nolint locksync — which also stops the fact from
// propagating to the function's callers.
var LockSync = &analysis.Analyzer{
	Name: "locksync",
	Doc: "flag blocking I/O (fsync, rename, net) inside a mutex critical section\n\n" +
		"Locks in this runtime guard in-memory state; disk and network waits must not ride inside them.",
	Run: runLockSync,
}

func runLockSync(pass *analysis.Pass) error {
	// Pass 1: facts over the shared call graph. For every function in
	// the package, record whether it directly performs a banned call
	// (suppressed call sites don't count — a vetted exception must not
	// poison callers); same-package call edges come from the graph.
	g := callgraph.New(pass)
	direct := make(map[*types.Func]string)
	for _, obj := range g.Funcs {
		fd := g.Decls[obj]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if why, banned := bannedCall(fn); banned {
				if !pass.Suppressed(pass.Analyzer.Name, call.Pos()) {
					if _, seen := direct[obj]; !seen {
						direct[obj] = why
					}
				}
			}
			return true
		})
	}

	// Fixpoint: propagate blocking facts through same-package calls —
	// function → the banned call it (transitively) performs.
	blocking := callgraph.Propagate(g, direct, func(callee *types.Func, why string) string {
		return callee.Name() + " → " + why
	})

	// Pass 2: walk each function body tracking which mutexes are held and
	// report banned or blocking calls inside a critical section. Mutexes
	// are keyed by the printed receiver expression of the Lock call (e.g.
	// "s.mu").
	w := &heldWalker{
		info: pass.TypesInfo,
		name: types.ExprString,
		call: func(call *ast.CallExpr, held map[string]bool) {
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return
			}
			if why, banned := bannedCall(fn); banned {
				pass.Reportf(call.Pos(), "blocking %s inside critical section (%s held); move the I/O off the lock", why, heldNames(held))
			} else if why, ok := blocking[fn]; ok {
				pass.Reportf(call.Pos(), "call to %s, which performs blocking I/O (%s), inside critical section (%s held)", fn.Name(), why, heldNames(held))
			}
		},
	}
	for _, obj := range g.Funcs {
		w.walkBody(g.Decls[obj].Body.List, map[string]bool{})
	}
	return nil
}

// bannedCall classifies fn as blocking I/O.
func bannedCall(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	switch path := fn.Pkg().Path(); {
	case path == "os" && fn.Name() == "Rename":
		return "os.Rename", true
	case path == "os" && fn.Name() == "Sync" && isMethodOf(fn, "File"):
		return "(*os.File).Sync", true
	case path == "net" || (len(path) > 4 && path[:4] == "net/"):
		return path + "." + fn.Name(), true
	}
	return "", false
}

func isMethodOf(fn *types.Func, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}
