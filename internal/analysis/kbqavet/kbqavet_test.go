package kbqavet

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestCtxPropagate(t *testing.T) {
	analysis.RunFixture(t, ".", CtxPropagate, "ctxprop")
}

func TestCtxPropagateMainExempt(t *testing.T) {
	analysis.RunFixture(t, ".", CtxPropagate, "ctxmain")
}

func TestLockSync(t *testing.T) {
	analysis.RunFixture(t, ".", LockSync, "locksync")
}

func TestSpanEnd(t *testing.T) {
	analysis.RunFixture(t, ".", SpanEnd, "spanend")
}

func TestStructuredLog(t *testing.T) {
	analysis.RunFixture(t, ".", StructuredLog, "structlog")
}

func TestStructuredLogMain(t *testing.T) {
	analysis.RunFixture(t, ".", StructuredLog, "structmain")
}

func TestGoroutineLife(t *testing.T) {
	analysis.RunFixture(t, ".", GoroutineLife, "goroutinelife")
}

func TestGoroutineLifeMainExempt(t *testing.T) {
	analysis.RunFixture(t, ".", GoroutineLife, "golifemain")
}

func TestMustClose(t *testing.T) {
	analysis.RunFixture(t, ".", MustClose, "mustclose")
}

func TestLockOrder(t *testing.T) {
	analysis.RunFixture(t, ".", LockOrder, "lockorder")
}

func TestErrSink(t *testing.T) {
	analysis.RunFixture(t, ".", ErrSink, "errsink")
}

// TestNolintUnused exercises the framework's stale-suppression
// meta-check through a normal fixture run: the runner reports
// directives that suppress nothing for an analyzer in the run.
func TestNolintUnused(t *testing.T) {
	analysis.RunFixture(t, ".", CtxPropagate, "nolintunused")
}

// TestRegistry pins the multichecker to exactly the documented analyzer
// set: adding or renaming an analyzer must update this list, the README
// "Static analysis" section, and the CI step together.
func TestRegistry(t *testing.T) {
	want := []string{"ctxpropagate", "locksync", "spanend", "structuredlog", "goroutinelife", "mustclose", "lockorder", "errsink"}
	got := Analyzers()
	if len(got) != len(want) {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Fatalf("registry has %d analyzers %v, want %d %v", len(got), names, len(want), want)
	}
	seen := make(map[string]bool)
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if first, _, _ := strings.Cut(a.Doc, "\n"); strings.TrimSpace(first) == "" {
			t.Errorf("analyzer %q has no one-line doc summary", a.Name)
		}
	}
}
