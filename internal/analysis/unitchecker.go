package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Config mirrors the JSON vet configuration file cmd/go writes for each
// analysis unit when invoked as `go vet -vettool=...`. Field names must
// match cmd/go's (they are the wire format); fields this driver does not
// consume are still listed so the contract is visible in one place.
type Config struct {
	ID                        string // package ID, e.g. "repro/internal/serve [repro/internal/serve.test]"
	Compiler                  string // "gc"
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string // import path as written -> canonical package path
	PackageFile               map[string]string // canonical package path -> export data file
	Standard                  map[string]bool
	PackageVetx               map[string]string // canonical package path -> dependency facts file (unused: no cross-package facts)
	VetxOnly                  bool              // produce facts only, no diagnostics (dependency unit)
	VetxOutput                string            // where to write this unit's facts
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a vettool built on this framework. It
// implements the three invocation modes cmd/go uses:
//
//	tool -V=full     print a version fingerprint (cached into build IDs)
//	tool -flags      print the tool's flags as JSON (flag validation)
//	tool <unit>.cfg  analyze one package unit, diagnostics to stderr
//
// Exit status: 0 clean, 1 operational failure, 2 diagnostics reported —
// the unitchecker convention `go vet` expects.
func Main(analyzers ...*Analyzer) {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, analyzers))
}

// run is Main with its process edges injected — argv minus the tool
// name, both output streams, and the exit status as the return value —
// so the unitchecker protocol is testable without forking.
func run(args []string, stdout, stderr io.Writer, analyzers []*Analyzer) int {
	fs := flag.NewFlagSet(filepath.Base(os.Args[0]), flag.ContinueOnError)
	fs.SetOutput(stderr)
	printVersion := fs.String("V", "", "print version and exit (-V=full for a build fingerprint)")
	printFlags := fs.Bool("flags", false, "print the tool's flags in JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *printVersion != "" {
		versionFingerprint(stdout, *printVersion)
		return 0
	}
	if *printFlags {
		return flagsJSON(stdout, stderr, fs)
	}

	if fs.NArg() != 1 || !strings.HasSuffix(fs.Arg(0), ".cfg") {
		fmt.Fprintf(stderr, "usage: %s [flags] <unit>.cfg\n(this tool is meant to be driven by `go vet -vettool`)\n", filepath.Base(os.Args[0]))
		return 1
	}
	diags, err := runUnit(fs.Arg(0), analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	return 2
}

// versionFingerprint answers -V=full with "name version devel buildID=…",
// the shape cmd/go parses to fold the tool's identity into action cache
// keys — so editing an analyzer invalidates previously clean vet results.
func versionFingerprint(w io.Writer, mode string) {
	name := filepath.Base(os.Args[0])
	if mode != "full" {
		fmt.Fprintf(w, "%s version devel\n", name)
		return
	}
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			//kbqa:nolint errsink — read-only handle; a failed close loses nothing
			f.Close()
		}
	}
	fmt.Fprintf(w, "%s version devel comments-go-here buildID=%02x\n", name, h.Sum(nil))
}

// flagsJSON prints the flag set in the JSON shape cmd/go's -flags probe
// expects (it validates user-passed analyzer flags against this list).
func flagsJSON(stdout, stderr io.Writer, fs *flag.FlagSet) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	stdout.Write(data)
	return 0
}

// positionedDiagnostic is one finding rendered against real file
// positions, printable in the file:line:col form vet relays.
type positionedDiagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d positionedDiagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// runUnit loads one vet config, type-checks the unit against the export
// data cmd/go already built for its dependencies, and runs the analyzers.
func runUnit(cfgPath string, analyzers []*Analyzer) ([]positionedDiagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, fmt.Errorf("kbqa-vet: read config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("kbqa-vet: parse config %s: %w", cfgPath, err)
	}
	// The facts file must exist whenever cmd/go asked for one, even though
	// this suite exports no facts — the action cache expects the output.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, fmt.Errorf("kbqa-vet: write facts: %w", err)
		}
	}
	if cfg.VetxOnly {
		// A dependency-only unit: facts written (empty), nothing to report.
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, fmt.Errorf("kbqa-vet: %v", err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(compiler, "amd64"),
		Error:    func(error) {}, // collect via the returned error; keep going
	}
	if v := cfg.GoVersion; v != "" {
		tc.GoVersion = v
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("kbqa-vet: typecheck %s: %v", cfg.ImportPath, err)
	}

	diags, err := Run(analyzers, true, fset, files, pkg, info)
	if err != nil {
		return nil, fmt.Errorf("kbqa-vet: %w", err)
	}
	out := make([]positionedDiagnostic, len(diags))
	for i, d := range diags {
		out[i] = positionedDiagnostic{Pos: fset.Position(d.Pos), Message: d.Message, Analyzer: d.Analyzer}
	}
	return out, nil
}
