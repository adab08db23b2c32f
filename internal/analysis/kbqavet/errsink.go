package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// ErrSink forbids discarding errors on the durability- and
// correctness-critical paths: fsync, rename, Close, and encode calls in
// library code must not lose their error to `_ =` or a bare call
// statement. PR 5's contract is that fsync failures are sticky and
// surfaced; a silently dropped Sync or Rename error is a durability lie,
// and a dropped Close on a write path can swallow the only report of
// lost bytes.
//
// Sanctioned sinks, never flagged:
//
//   - Close in package net (socket teardown is best-effort by
//     convention here — the peer may already be gone and there is no
//     actionable consumer for the error);
//   - deferred calls (`defer f.Close()` has no handler frame; write
//     paths must do an explicit checked Close before returning, the
//     writeSegment pattern);
//   - package main and _test.go files.
//
// A deliberate discard elsewhere (a documented best-effort path)
// carries //kbqa:nolint errsink with the justification.
var ErrSink = &analysis.Analyzer{
	Name: "errsink",
	Doc: "library code must not discard errors from fsync/rename/Close/encode paths via `_ =` or bare calls\n\n" +
		"Durability and encoding errors need a handler; sanctioned sinks are net teardown, defers, and annotated best-effort paths.",
	Run: runErrSink,
}

func runErrSink(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// Sanctioned: a defer has nowhere to put the error.
				return false
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if desc, bad := errSinkCall(pass.TypesInfo, call); bad {
						pass.Reportf(call.Pos(), "error from %s discarded in library code; handle or return it (sanctioned sinks carry //kbqa:nolint errsink)", desc)
					}
				}
			case *ast.AssignStmt:
				checkBlankErr(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankErr flags `_ = call` and `x, _ = call` where the blanked
// position is the error result of a banned call.
func checkBlankErr(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	desc, bad := errSinkCall(pass.TypesInfo, call)
	if !bad {
		return
	}
	fn := callgraph.CalleeFunc(pass.TypesInfo, call)
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	// The error is the last result; the assignment must blank exactly
	// that position to count as a discard.
	errIdx := sig.Results().Len() - 1
	if errIdx < 0 || errIdx >= len(assign.Lhs) {
		return
	}
	if id, ok := assign.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(assign.Pos(), "error from %s discarded in library code; handle or return it (sanctioned sinks carry //kbqa:nolint errsink)", desc)
	}
}

// errSinkCall classifies call as one of the banned error-discarding
// targets and returns its description. The callee must actually return
// an error for a discard to exist.
func errSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := callgraph.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "os" && name == "Rename":
		return "os.Rename", true
	case name == "Sync" && isMethodOf(fn, "File"):
		return "(*os.File).Sync", true
	case name == "Close":
		// Socket teardown is the sanctioned sink; every other Closer's
		// error is load-bearing (files surface write errors at Close).
		if path == "net" || (len(path) > 4 && path[:4] == "net/") {
			return "", false
		}
		return recvName(fn) + ".Close", true
	case name == "Flush" && isMethodOf(fn, "Writer") && path == "bufio":
		return "(*bufio.Writer).Flush", true
	case (path == "encoding/json" || path == "encoding/gob") && (name == "Marshal" || name == "MarshalIndent"):
		return path + "." + name, true
	case name == "Encode" && (path == "encoding/json" || path == "encoding/gob"):
		return path + ".Encoder.Encode", true
	}
	return "", false
}

// recvName names a method's receiver type for diagnostics ("File",
// "Image", ...), or the package path for plain functions.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Path()
		}
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return sig.Recv().Type().String()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
