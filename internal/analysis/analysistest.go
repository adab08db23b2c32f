package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRE matches expectation comments in fixture files:
//
//	code under test // want "regexp matching the diagnostic"
//	code under test // want `regexp with \(escapes\)`
//
// the same convention golang.org/x/tools/go/analysis/analysistest uses,
// so fixtures read identically to upstream ones.
var wantRE = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// RunFixture loads testdata/src/<pkg> under dir, type-checks it with the
// source importer (fixtures may import only the standard library), runs
// the analyzer, and compares the diagnostics against `// want "re"`
// comments: every want must be matched by a diagnostic on its line, and
// every diagnostic must be covered by a want. Lines carrying a
// //kbqa:nolint directive therefore prove suppression simply by having
// no want comment. The run is partial: a directive naming an analyzer
// other than a is not audited.
func RunFixture(t testing.TB, dir string, a *Analyzer, pkg string) {
	t.Helper()
	pkgDir := filepath.Join(dir, "testdata", "src", pkg)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(pkgDir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
		names = append(names, name)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", pkgDir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := tc.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", pkg, err)
	}

	diags, err := Run([]*Analyzer{a}, false, fset, files, tpkg, info)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				pattern := m[2] // backtick form: taken verbatim
				if m[1] != "" || m[2] == "" {
					pattern = strings.ReplaceAll(m[1], `\"`, `"`)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, m[1], err)
				}
				k := key{name, i + 1}
				wants[k] = append(wants[k], re)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	var missing []string
	for k, res := range wants {
		for _, re := range res {
			missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}
