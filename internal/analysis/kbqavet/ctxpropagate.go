package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// CtxPropagate flags context.Background()/context.TODO() in non-test
// library code. PR 3 made Query(ctx, ...) the single entry point and
// PR 6 made the context carry the active trace; a fresh Background in a
// library path silently drops both cancellation and the caller's trace
// ID — exactly the bug class that hid in the deprecated Ask shims and
// the batch path. Package main is exempt (a process entry point is
// where root contexts are born), as are _test.go files.
//
// It also flags a literal nil argument in a context.Context parameter
// position: a nil context skirts the Background check while dropping
// cancellation, deadlines and tracing just the same (and panics in any
// callee that derives from it) — the loophole the remote-scan paths used
// before they grew ctx-aware variants.
//
// When a context.Context parameter is in scope the message says so —
// those are the unambiguous drops; the rest are ctx-less shims that
// should either gain a context parameter or carry a justified
// //kbqa:nolint ctxpropagate.
var CtxPropagate = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc: "flag context.Background/TODO and literal nil contexts in library code, which drop caller cancellation and trace IDs\n\n" +
		"Library (non-main, non-test) code must thread the caller's context. " +
		"Annotate deliberate fresh roots (background goroutines, compat shims) with //kbqa:nolint ctxpropagate.",
	Run: runCtxPropagate,
}

func runCtxPropagate(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		// funcStack tracks the enclosing function literals/declarations so
		// that, at each Background/TODO call, we can ask whether any of
		// them binds a context.Context parameter or receiver.
		var funcStack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcStack = append(funcStack, n)
				var body *ast.BlockStmt
				if fd, ok := n.(*ast.FuncDecl); ok {
					body = fd.Body
				} else {
					body = n.(*ast.FuncLit).Body
				}
				if body != nil {
					ast.Inspect(body, walk)
				}
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.CallExpr:
				fn := callgraph.CalleeFunc(pass.TypesInfo, n)
				if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
					if name, ok := ctxParamInScope(pass, funcStack); ok {
						pass.Reportf(n.Pos(), "context.%s() drops the caller's context %q in scope; pass it through instead", fn.Name(), name)
					} else {
						pass.Reportf(n.Pos(), "context.%s() in library code; accept a context.Context and propagate it (or annotate a deliberate root with //kbqa:nolint ctxpropagate)", fn.Name())
					}
				}
				checkNilCtxArgs(pass, n, funcStack)
			}
			return true
		}
		ast.Inspect(file, walk)
	}
	return nil
}

// checkNilCtxArgs reports every literal nil argument sitting in a
// context.Context parameter position of the call.
func checkNilCtxArgs(pass *analysis.Pass, call *ast.CallExpr, funcStack []ast.Node) {
	if call.Ellipsis.IsValid() {
		// f(args...) spreads a slice; no literal nil sits in a parameter
		// position.
		return
	}
	tv, ok := pass.TypesInfo.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		// Type conversion or builtin, not a function call.
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		if argTV, ok := pass.TypesInfo.Types[arg]; !ok || !argTV.IsNil() {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isContextType(pt) {
			continue
		}
		if name, ok := ctxParamInScope(pass, funcStack); ok {
			pass.Reportf(arg.Pos(), "literal nil in context.Context parameter position drops the caller's context %q in scope; pass it through instead", name)
		} else {
			pass.Reportf(arg.Pos(), "literal nil in context.Context parameter position; thread a real context (or pass an annotated context.Background at a deliberate root)")
		}
	}
}

// ctxParamInScope reports whether any enclosing function binds a
// parameter (or receiver) of type context.Context, returning its name.
func ctxParamInScope(pass *analysis.Pass, funcStack []ast.Node) (string, bool) {
	for i := len(funcStack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		var recv *ast.FieldList
		switch fn := funcStack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
			recv = fn.Recv
		case *ast.FuncLit:
			ft = fn.Type
		}
		for _, fl := range []*ast.FieldList{recv, ft.Params} {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				tv, ok := pass.TypesInfo.Types[field.Type]
				if !ok || !isContextType(tv.Type) {
					continue
				}
				for _, name := range field.Names {
					if name.Name != "_" {
						return name.Name, true
					}
				}
			}
		}
	}
	return "", false
}
