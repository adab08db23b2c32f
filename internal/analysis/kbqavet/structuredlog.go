package kbqavet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// StructuredLog bans ad-hoc output in favor of the structured logger PR 6
// threaded through the runtime. In library packages every stdlib log call
// and every fmt.Print/Printf/Println is flagged — operational output must
// go through obs.Logger so it carries levels, fields, and trace IDs, and
// lands on one machine-parseable stream. In package main, fmt.Print* is
// allowed (CLI output to stdout is the program's interface) and log.* is
// allowed only in main/usage (flag-parse-and-die paths); everything past
// startup must use the structured logger. The print/println builtins are
// banned everywhere outside tests.
var StructuredLog = &analysis.Analyzer{
	Name: "structuredlog",
	Doc: "ban log.Printf/fmt.Print* outside cmd flag-parse paths and tests; use obs.Logger\n\n" +
		"Structured leveled logging is the only way operational output stays greppable and trace-correlated.",
	Run: runStructuredLog,
}

// fmtPrinters are the fmt functions that write to process stdout.
var fmtPrinters = map[string]bool{"Print": true, "Printf": true, "Println": true}

func runStructuredLog(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			// log.* is tolerated only in the flag-parse-and-die paths of a
			// command: main() and usage() run before the structured logger
			// exists.
			inStartup := isMain && isFunc && fd.Recv == nil &&
				(fd.Name.Name == "main" || fd.Name.Name == "usage")
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "print" || id.Name == "println") {
						pass.Reportf(call.Pos(), "builtin %s writes to stderr unstructured; use obs.Logger", id.Name)
						return true
					}
				}
				fn := callgraph.CalleeFunc(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "log":
					if !inStartup {
						if isMain {
							pass.Reportf(call.Pos(), "log.%s outside main/usage; past flag parsing, use obs.Logger", fn.Name())
						} else {
							pass.Reportf(call.Pos(), "log.%s in library code; use obs.Logger so output is leveled, fielded, and trace-correlated", fn.Name())
						}
					}
				case "fmt":
					if fmtPrinters[fn.Name()] && !isMain {
						pass.Reportf(call.Pos(), "fmt.%s in library code writes to stdout; use obs.Logger (or return the string)", fn.Name())
					}
				}
				return true
			})
		}
	}
	return nil
}
