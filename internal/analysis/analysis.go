// Package analysis is the repo's dependency-free static-analysis
// framework: a deliberately small, API-compatible subset of
// golang.org/x/tools/go/analysis (which this module cannot depend on —
// the toolchain is the only dependency) plus a `go vet -vettool`
// compatible driver (unitchecker.go) and a fixture test harness
// (analysistest.go).
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Suppression is uniform across analyzers: a
// comment of the form
//
//	//kbqa:nolint <analyzer> [— justification]
//
// on the flagged line, or alone on the line above it, drops the
// diagnostic. The runner applies suppression centrally; analyzers that
// derive facts from flagged calls (e.g. locksync's "this function does
// blocking I/O") consult Pass.Suppressed so a vetted call site does not
// poison its callers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //kbqa:nolint directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description documented in the README;
	// the first line states the invariant.
	Doc string
	// Run inspects the package and reports findings via Pass.Report.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's syntax and type information through an
// Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives the analyzer's raw findings; the runner filters
	// suppressed ones afterwards.
	report func(Diagnostic)
	// nolint maps file name -> line -> set of analyzer names suppressed
	// on that line.
	nolint map[string]map[int]map[string]bool
	// used records which directives suppressed something (a diagnostic
	// or a fact query), keyed by file:line:name — shared across the
	// run's passes so the stale-suppression meta-check can report the
	// rest.
	used map[directiveKey]bool
}

// directiveKey identifies one analyzer name of one //kbqa:nolint
// directive (a directive naming several analyzers is several keys, each
// audited separately).
type directiveKey struct {
	file string
	line int
	name string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// InTestFile reports whether pos lies in a _test.go file; the suite's
// invariants govern production code, and tests are exempt wholesale.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Suppressed reports whether a //kbqa:nolint directive for the named
// analyzer covers pos — on the same line, or alone on the line above.
// Analyzers use it when a finding also feeds derived state (facts), so
// suppressing the diagnostic suppresses the fact too. A matching
// directive is recorded as used: suppressing a fact keeps a directive
// live even when no diagnostic would have been emitted at the site.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	lines, ok := p.nolint[position.Filename]
	if !ok {
		return false
	}
	hit := false
	for _, line := range []int{position.Line, position.Line - 1} {
		if lines[line][name] {
			if p.used != nil {
				p.used[directiveKey{position.Filename, line, name}] = true
			}
			hit = true
		}
	}
	return hit
}

// nolintRE matches the suppression directive. The directive must carry at
// least one analyzer name ("//kbqa:nolint" alone suppresses nothing —
// silent blanket waivers defeat the point). Anything after the names is
// free-form justification.
var nolintRE = regexp.MustCompile(`^//\s*kbqa:nolint\s+([a-zA-Z0-9_,\s]+?)(?:\s+[-—–].*)?$`)

// directive is one //kbqa:nolint occurrence, retained (with its
// position) so the stale-suppression meta-check can point at it.
type directive struct {
	key directiveKey
	pos token.Pos
}

// buildNolintIndex scans every comment of the files for //kbqa:nolint
// directives. A directive suppresses the line it sits on; a directive
// that is the only thing on its line also suppresses the line below
// (the conventional "annotation above the statement" placement — covered
// because Suppressed checks line-1). The flat directive list drives the
// stale-suppression audit.
func buildNolintIndex(fset *token.FileSet, files []*ast.File) (map[string]map[int]map[string]bool, []directive) {
	idx := make(map[string]map[int]map[string]bool)
	var dirs []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := nolintRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					if name != "" && !set[name] {
						set[name] = true
						dirs = append(dirs, directive{key: directiveKey{pos.Filename, pos.Line, name}, pos: c.Pos()})
					}
				}
			}
		}
	}
	return idx, dirs
}

// NolintCheck names the framework's own meta-check: a //kbqa:nolint
// directive that suppresses nothing for an analyzer in the run, or that
// names no analyzer of the suite, is reported under this name, so
// suppressions cannot go stale or be misspelt silently. The meta-check
// is not itself suppressible.
const NolintCheck = "nolint"

// Run executes the analyzers over one type-checked package and returns
// the surviving (non-suppressed) diagnostics in file/position order,
// plus one "stale suppression" diagnostic for every directive that
// named a run analyzer but suppressed nothing. whole says the analyzers
// are the whole suite, as in every kbqa-vet run: a directive naming any
// other analyzer then names none and is reported too. A partial run (a
// fixture's one analyzer) proves nothing about such directives and
// leaves them alone. Directives in _test.go files are never audited.
func Run(analyzers []*Analyzer, whole bool, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	nolint, directives := buildNolintIndex(fset, files)
	used := make(map[directiveKey]bool)
	var out []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			nolint:    nolint,
			used:      used,
		}
		pass.report = func(d Diagnostic) {
			if pass.Suppressed(d.Analyzer, d.Pos) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, d := range directives {
		if used[d.key] || strings.HasSuffix(d.key.file, "_test.go") {
			continue
		}
		msg := fmt.Sprintf("//kbqa:nolint %s suppresses no %s diagnostic; remove or fix the stale directive", d.key.name, d.key.name)
		if !ran[d.key.name] {
			if !whole {
				continue
			}
			msg = fmt.Sprintf("//kbqa:nolint %s names no analyzer of the suite; fix the name or remove the directive", d.key.name)
		}
		out = append(out, Diagnostic{Pos: d.pos, Message: msg, Analyzer: NolintCheck})
	}
	sortDiagnostics(fset, out)
	return out, nil
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	byPos := func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	}
	// Insertion sort: diagnostic counts are tiny and it avoids importing
	// sort for one call site... but clarity wins; use the obvious loop.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && byPos(j, j-1); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
