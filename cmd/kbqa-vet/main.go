// Command kbqa-vet is the repo's static-analysis suite, run as a
// `go vet` tool:
//
//	go build -o kbqa-vet ./cmd/kbqa-vet
//	go vet -vettool=$PWD/kbqa-vet ./...
//
// It enforces the runtime's recorded invariants — context propagation,
// no blocking I/O under locks, resource and span lifecycle (mustclose,
// spanend), goroutine termination signals, error-sink hygiene, and
// structured logging: seven analyzers sharing one call-graph facts
// layer, always run as a whole suite. A //kbqa:nolint directive that
// suppresses nothing, or names no analyzer, is itself reported. See the
// README "Static analysis" section for the analyzer table and the
// directive grammar.
package main

import (
	"repro/internal/analysis"
	"repro/internal/analysis/kbqavet"
)

func main() {
	analysis.Main(kbqavet.Analyzers()...)
}
