package kbqavet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// LockOrder builds the package-wide lock-acquisition-order graph and
// flags cycles: if one path acquires B while holding A and another
// acquires A while holding B, two goroutines taking the two paths
// concurrently deadlock. The graph is interprocedural over the shared
// call-graph facts — calling a function that (transitively) acquires B
// while A is held records the A→B edge at the call site.
//
// Locks are named per class, not per instance: a field mutex normalizes
// to "Type.field" (any receiver variable), a package-level mutex to its
// variable name. Hand-over-hand locking of two instances of one class
// therefore reads as a self-cycle — deliberate lock coupling of that
// shape carries //kbqa:nolint lockorder with the ordering argument in
// the justification.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "lock acquisition order must be acyclic across the package; a cycle between named mutexes is a potential deadlock\n\n" +
		"Nested critical sections define a package-wide order; every path must respect it.",
	Run: runLockOrder,
}

func runLockOrder(pass *analysis.Pass) error {
	g := callgraph.New(pass)

	// Phase 1: per-function direct acquisitions (any Lock/RLock in the
	// body, regardless of nesting), then the transitive closure over
	// same-package calls — "calling f may acquire these locks".
	direct := make(map[*types.Func]map[string]bool)
	for _, obj := range g.Funcs {
		set := make(map[string]bool)
		ast.Inspect(g.Decls[obj].Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if e, kind := mutexOp(pass.TypesInfo, call); kind == opLock {
					set[lockName(pass, e)] = true
				}
			}
			return true
		})
		if len(set) > 0 {
			direct[obj] = set
		}
	}
	acquires := callgraph.PropagateSets(g, direct)

	// Phase 2: branch-sensitive walk of every body, recording an edge
	// held→acquired for each direct Lock and each call into a
	// lock-acquiring function inside a critical section. Suppressed
	// sites contribute no edges — a vetted exception must not poison
	// the package graph.
	edges := make(map[[2]string]token.Pos) // first site wins, for stable reports
	addEdges := func(call *ast.CallExpr, held, acquired map[string]bool) {
		if pass.Suppressed(pass.Analyzer.Name, call.Pos()) {
			return
		}
		for from := range held {
			for to := range acquired {
				if _, seen := edges[[2]string{from, to}]; !seen {
					edges[[2]string{from, to}] = call.Pos()
				}
			}
		}
	}
	w := &heldWalker{
		info: pass.TypesInfo,
		name: func(e ast.Expr) string { return lockName(pass, e) },
		acquire: func(call *ast.CallExpr, lock string, held map[string]bool) {
			addEdges(call, held, map[string]bool{lock: true})
		},
		call: func(call *ast.CallExpr, held map[string]bool) {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && len(acquires[fn]) > 0 {
				addEdges(call, held, acquires[fn])
			}
		},
	}
	for _, obj := range g.Funcs {
		w.walkBody(g.Decls[obj].Body.List, map[string]bool{})
	}

	// Cycle detection over the edge graph; each offending edge (one
	// whose target can reach back to its source) is reported at the
	// site that recorded it, with the cycle spelled out.
	reportLockCycles(pass, edges)
	return nil
}

// lockName normalizes a mutex receiver expression to a package-stable
// lock class name: "Type.field" for a struct field, the variable name
// for package-level or local mutexes, the printed expression otherwise.
func lockName(pass *analysis.Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			t := sel.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return types.ExprString(e)
	case *ast.Ident:
		return e.Name
	default:
		return types.ExprString(e)
	}
}

// reportLockCycles reports every edge that lies on a cycle, at the site
// that recorded it, naming a concrete cycle path for the message.
func reportLockCycles(pass *analysis.Pass, edges map[[2]string]token.Pos) {
	succ := make(map[string][]string)
	for e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	for _, vs := range succ {
		sort.Strings(vs)
	}
	// path finds a shortest from→to route through the edge graph.
	path := func(from, to string) []string {
		prev := map[string]string{from: from}
		queue := []string{from}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, n := range succ[v] {
				if _, seen := prev[n]; !seen {
					prev[n] = v
					queue = append(queue, n)
				}
			}
		}
		if _, ok := prev[to]; !ok {
			return nil
		}
		var out []string
		for v := to; ; v = prev[v] {
			out = append([]string{v}, out...)
			if v == from {
				return out
			}
		}
	}
	// Deterministic order: sort edges before reporting.
	keys := make([][2]string, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, e := range keys {
		from, to := e[0], e[1]
		if from == to {
			pass.Reportf(edges[e], "lock %s acquired while already held — self-deadlock (or unannotated lock coupling across instances)", to)
			continue
		}
		back := path(to, from)
		if back == nil {
			continue
		}
		cycle := strings.Join(append([]string{from}, back...), " → ")
		pass.Reportf(edges[e], "acquiring %s while %s is held creates a lock-order cycle (%s); pick one order", to, from, cycle)
	}
}
