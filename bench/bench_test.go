package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/kbqa"
)

// TestMeasuresFromOutsideOnly keeps the benchmark on the public,
// non-deprecated API: a later change that narrows an internal seam or
// drops a deprecated shim must neither break nor need to edit it.
func TestMeasuresFromOutsideOnly(t *testing.T) {
	deprecated := map[string]bool{"Ask": true, "AskVariant": true, "Fallback": true, "BuiltinBaseline": true, "AskBatch": true}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "repro/internal") {
				t.Errorf("%s imports %s; the benchmark may use repro/kbqa only", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && deprecated[sel.Sel.Name] {
					t.Errorf("%s calls the deprecated shim %s", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestPoolIsSeeded: the same seed gives the same questions in the same
// order, another seed gives others, and every class is large enough.
func TestPoolIsSeeded(t *testing.T) {
	oracle, err := kbqa.Build(worldOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	ctx := context.Background()
	texts := func(seed int64) []string {
		p, err := buildPool(ctx, oracle, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("seed", seed, p)
		keys := make(map[string]bool)
		for _, q := range p.qs {
			if keys[cacheKey(q.text)] {
				t.Errorf("seed %d: %q is in the pool twice as far as the server's cache can tell", seed, q.text)
			}
			keys[cacheKey(q.text)] = true
		}
		return p.texts(p.indexes(mixFull))
	}
	a, again, b := texts(7), texts(7), texts(8)
	if strings.Join(a, "\n") != strings.Join(again, "\n") {
		t.Error("the same seed gave two different pools")
	}
	if strings.Join(a, "\n") == strings.Join(b, "\n") {
		t.Error("two seeds gave the same pool")
	}
}

// TestEmitsWhatBenchmarkJSONDeclares runs every workload for a second
// against the real binaries, one of them traced, and checks that the
// workloads and the metric names and units the program emits are exactly
// those BENCHMARK.json declares.
func TestEmitsWhatBenchmarkJSONDeclares(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the server binaries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.cleanup)
	man, err := loadManifest(h.root)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.checkAgainst(workloads); err != nil {
		t.Fatal(err)
	}
	if err := h.build(ctx); err != nil {
		t.Fatal(err)
	}
	check := func(w workload, section string, declared []manifestMetric, defs []metricDef, got metricSet) {
		t.Helper()
		if _, err := got.render(defs); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		var want, have []string
		for _, d := range declared {
			want = append(want, d.Name)
		}
		for name := range got {
			have = append(have, name)
		}
		sort.Strings(want)
		sort.Strings(have)
		if strings.Join(want, " ") != strings.Join(have, " ") {
			t.Errorf("%s %s: BENCHMARK.json declares %v, the run emitted %v", w.name, section, want, have)
		}
	}
	for _, w := range workloads {
		// The per-layer names do not depend on the workload; the cluster has
		// the shard servers the in-process boundaries need anyway.
		cfg := runConfig{w: w, seed: 1, window: time.Second, trace: w.cluster, setups: 1, reps: 1}
		rep, err := runWorkload(ctx, h, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct() {
			t.Errorf("%s: %d of %d failed (%s); expectations not met: %v", w.name, rep.failed, rep.attempted, rep.firstFail, rep.broken)
		}
		check(w, "end_to_end", man.EndToEnd, endToEnd, rep.endToEnd)
		if cfg.trace {
			check(w, "per_layer", man.PerLayer, perLayer, rep.perLayer)
		}
	}
}
