package kbqavet

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// LockSync flags blocking I/O — (*os.File).Sync, os.Rename, a net or
// net/http call that can wait on a socket — executed while a
// sync.Mutex/RWMutex is held. PR 5's core invariant: the persist.go
// append mutex protects an in-memory rotation, so fsync and rename must
// happen off the critical section or every writer stalls behind the
// disk. The check is package-local and transitive: a function that
// (directly or through same-package calls) performs blocking I/O must
// not be called under a lock.
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
			fn := callgraph.CalleeFunc(pass.TypesInfo, call)
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
	// report banned or blocking calls inside a critical section.
	w := &heldWalker{
		info: pass.TypesInfo,
		call: func(call *ast.CallExpr, held map[string]bool) {
			fn := callgraph.CalleeFunc(pass.TypesInfo, call)
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
	case (path == "net" || path == "net/http") && waitsOnSocket(fn):
		return fn.FullName(), true
	}
	return "", false
}

// waitsOnSocket reports whether fn, of package net or net/http, can wait
// on a socket: a method of net.Conn, net.Listener or a net type that
// implements one, a Dial*, Listen* or Lookup* function or method of
// package net, or an HTTP client request. The rest of both packages
// (http.Header, net.SplitHostPort, …) is pure computation and free to
// call under a lock.
func waitsOnSocket(fn *types.Func) bool {
	name := fn.Name()
	recv := fn.Type().(*types.Signature).Recv()
	if fn.Pkg().Path() == "net/http" {
		if recv == nil {
			return name == "Get" || name == "Head" || name == "Post" || name == "PostForm"
		}
		return isMethodOf(fn, "Client") || name == "RoundTrip"
	}
	if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Lookup") {
		return true
	}
	if recv == nil {
		return false
	}
	for _, iface := range []string{"Conn", "Listener"} {
		tn, _ := fn.Pkg().Scope().Lookup(iface).(*types.TypeName)
		if tn == nil {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && types.Implements(recv.Type(), it) {
			return true
		}
	}
	return false
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
