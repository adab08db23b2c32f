//go:build reach

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// unlinkedOnPurpose lists the declared functions no shipped binary links,
// each with the reason it stays. An entry that becomes linked, or whose
// function is deleted, fails the test too, so the list cannot go stale.
var unlinkedOnPurpose = map[string]string{
	"repro/internal/analysis.RunFixture":   "the fixture harness the analyzer tests of another package call",
	"repro/internal/obs.SpanSnapshot.Find": "trace inspection for tests of other packages",
	"repro/internal/obs.SpanSnapshot.Attr": "trace inspection for tests of other packages",
	"repro/kbqa.WithoutVariants":           "public API",
}

var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+[A-Za-z]\s+(repro/.*)$`)

// TestEveryFunctionIsLinked is the reachability rule: a non-test function
// outside the main packages is linked into at least one cmd/* or
// examples/* binary (built with inlining off, so a symbol survives for
// every function that is called), or is listed above with its reason.
//
//	go test -tags reach -run TestEveryFunctionIsLinked .
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", build.Args, err, out)
	}
	binaries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, b := range binaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if m := nmLine.FindStringSubmatch(line); m != nil {
				linked[symbolKey(m[1])] = true
			}
		}
	}
	t.Logf("%d binaries, %d module symbols", len(binaries), len(linked))

	declared := map[string]string{} // function → file
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if slices.Contains([]string{"bench", "cmd", "examples", "testdata", ".git"}, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			key := pkg + "."
			if fd.Recv != nil {
				key += receiverName(fd.Recv.List[0].Type) + "."
			}
			declared[key+fd.Name.Name] = filepath.ToSlash(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unlinked []string
	for fn, file := range declared {
		if !linked[fn] && unlinkedOnPurpose[fn] == "" {
			unlinked = append(unlinked, fn+"  ("+file+")")
		}
	}
	slices.Sort(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d of %d functions are linked into no binary — call them from one, delete them, or list them with a reason:\n  %s",
			len(unlinked), len(declared), strings.Join(unlinked, "\n  "))
	}
	for fn := range unlinkedOnPurpose {
		if _, ok := declared[fn]; !ok || linked[fn] {
			t.Errorf("unlinkedOnPurpose lists %s, which is linked or no longer declared: drop the entry", fn)
		}
	}
}

// symbolKey reduces a linker symbol to pkg.Func or pkg.Type.Method:
// type arguments and the pointer-receiver decoration are dropped, so every
// instantiation of a generic function counts for its declaration.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

// receiverName is the receiver's type name without star or type parameters.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
