package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// reportFuncs is a minimal analyzer for driving the protocol: one
// diagnostic per function declaration.
var reportFuncs = &Analyzer{
	Name: "reportfuncs",
	Doc:  "report every function declaration (test analyzer)",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "function %s declared", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

// writeUnit writes a one-file, import-free package and the vet .cfg
// describing it, returning the .cfg path. Import-free means the unit
// type-checks without export data, so no toolchain run is needed.
func writeUnit(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "p.go")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ID:         "example/p",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "example/p",
		GoFiles:    []string{goFile},
		VetxOutput: filepath.Join(dir, "p.vetx"),
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

func runTool(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, []*Analyzer{reportFuncs})
	return code, out.String(), errb.String()
}

// TestVersionFingerprint: -V=full must print the "name version devel
// buildID=…" line cmd/go parses into its action-cache key; a malformed
// line makes go vet fail before any analysis runs.
func TestVersionFingerprint(t *testing.T) {
	code, stdout, _ := runTool(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
	re := regexp.MustCompile(`^\S+ version devel comments-go-here buildID=[0-9a-f]{64}\n$`)
	if !re.MatchString(stdout) {
		t.Fatalf("-V=full printed %q, want match for %v", stdout, re)
	}
	code, stdout, _ = runTool(t, "-V=short")
	if code != 0 || !strings.Contains(stdout, "version devel") {
		t.Fatalf("-V=short: exit %d, output %q", code, stdout)
	}
}

// TestFlagsJSON: -flags must emit the flag list as JSON with the shape
// cmd/go's flag-validation probe decodes, and the list is exactly the
// two flags go vet itself sends: every run is the whole suite.
func TestFlagsJSON(t *testing.T) {
	code, stdout, _ := runTool(t, "-flags")
	if code != 0 {
		t.Fatalf("-flags exited %d", code)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal([]byte(stdout), &flags); err != nil {
		t.Fatalf("-flags output is not the expected JSON: %v\n%s", err, stdout)
	}
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
	}
	if strings.Join(names, " ") != "V flags" {
		t.Fatalf("-flags lists %v, want [V flags]", names)
	}
	if flags[0].Bool || !flags[1].Bool {
		t.Errorf("-V must take a value and -flags must be boolean: %+v", flags)
	}
}

// TestExitTwoOnFindings: diagnostics must surface as exit 2 with
// file:line:col lines on stderr — exit 0 would let findings pass CI,
// exit 1 would read as tool breakage.
func TestExitTwoOnFindings(t *testing.T) {
	cfgPath := writeUnit(t, "package p\n\nfunc F() {}\n")
	code, _, stderr := runTool(t, cfgPath)
	if code != 2 {
		t.Fatalf("exit %d with findings, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "function F declared") || !strings.Contains(stderr, "[reportfuncs]") {
		t.Fatalf("diagnostic missing from stderr: %s", stderr)
	}
	if !regexp.MustCompile(`p\.go:\d+:\d+:`).MatchString(stderr) {
		t.Fatalf("diagnostic lacks file:line:col position: %s", stderr)
	}
}

// TestExitZeroClean: a unit with nothing to report exits 0 and writes
// the facts file the action cache expects.
func TestExitZeroClean(t *testing.T) {
	cfgPath := writeUnit(t, "package p\n\nvar X = 1\n")
	code, stdout, stderr := runTool(t, cfgPath)
	if code != 0 {
		t.Fatalf("exit %d on a clean unit\nstderr: %s", code, stderr)
	}
	if stdout != "" || stderr != "" {
		t.Fatalf("clean unit produced output: stdout %q, stderr %q", stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(cfgPath), "p.vetx")); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
}

// TestUnknownAnalyzerDirective: a directive naming no analyzer of the
// suite (a typo, or an analyzer since deleted) suppresses nothing, so a
// kbqa-vet run reports it under the nolint check instead of passing.
func TestUnknownAnalyzerDirective(t *testing.T) {
	cfgPath := writeUnit(t, "package p\n\n//kbqa:nolint reportfunc — misspelt\nvar X = 1\n")
	code, _, stderr := runTool(t, cfgPath)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "//kbqa:nolint reportfunc names no analyzer of the suite") || !strings.Contains(stderr, "[nolint]") {
		t.Fatalf("unknown-analyzer directive not reported: %s", stderr)
	}
}

// TestCorruptConfig: an unreadable or unparseable .cfg is an
// operational failure — exit 1 with the reason, never a silent pass.
func TestCorruptConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runTool(t, cfgPath)
	if code != 1 {
		t.Fatalf("corrupt config exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "parse config") {
		t.Fatalf("stderr does not name the failure: %s", stderr)
	}

	code, _, stderr = runTool(t, filepath.Join(dir, "missing.cfg"))
	if code != 1 || !strings.Contains(stderr, "read config") {
		t.Fatalf("missing config: exit %d, stderr %s", code, stderr)
	}

	// No .cfg argument at all is a usage error.
	code, _, stderr = runTool(t)
	if code != 1 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("no-argument run: exit %d, stderr %s", code, stderr)
	}
}
