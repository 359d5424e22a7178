package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// moduleRootForTest is the repository root, two levels above this package.
func moduleRootForTest(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// realTree is the repository itself, parsed and type-checked once per test
// binary: every test that inspects the real module shares this load.
var realTree struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

// loadRealTree returns the shared load of the real module.
func loadRealTree(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	root := moduleRootForTest(t)
	realTree.once.Do(func() {
		realTree.loader = NewLoader(root, "oversub")
		realTree.pkgs, realTree.err = realTree.loader.LoadTree()
	})
	if realTree.err != nil {
		t.Fatalf("load real tree: %v", realTree.err)
	}
	return realTree.loader, realTree.pkgs
}

// TestRealTreeIsLintClean runs the analyzer suite over this repository
// itself: the tree must carry zero diagnostics, with every legitimate
// exception (the runner's wall-clock heartbeat) annotated in the source.
func TestRealTreeIsLintClean(t *testing.T) {
	loader, pkgs := loadRealTree(t)
	for _, d := range lintLoaded(moduleRootForTest(t), "oversub", loader.Fset(), pkgs) {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the violation or add an audited //simlint:allow annotation (see DESIGN.md, Determinism rules)")
	}
}

// TestSimlintCommand is the end-to-end check: the shipped command, invoked
// the way ci.sh invokes it, must exit 0 with no output on the real tree.
func TestSimlintCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run meta-test in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/simlint", "./...")
	cmd.Dir = moduleRootForTest(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/simlint ./... failed: %v\noutput:\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("simlint reported diagnostics on a tree that must be clean:\n%s", out)
	}
}

// TestSchemaLitNamesRegistryConstant covers the schemalit registry hit,
// which the fixture corpus cannot reach (a fixture run analyzes one
// package, never a registry beside it): when the module's schema registry
// already declares an inline tag's value, the diagnostic names the
// constant to use instead.
func TestSchemaLitNamesRegistryConstant(t *testing.T) {
	root := t.TempDir()
	files := []struct{ rel, src string }{
		{"go.mod", "module fixmod\n\ngo 1.21\n"},
		{"schema/schema.go", "package schema\n\n// ReportV1 tags report artifacts.\nconst ReportV1 = \"report/v1\"\n"},
		{"writer.go", "package fixmod\n\nfunc tag() string {\n\treturn \"report/v1\"\n}\n"},
	}
	for _, f := range files {
		abs := filepath.Join(root, filepath.FromSlash(f.rel))
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(abs, []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := LintModule(root)
	if err != nil {
		t.Fatalf("LintModule: %v", err)
	}
	if len(diags) != 1 || diags[0].Rule != "schemalit" || diags[0].Pos.Filename != "writer.go" {
		t.Fatalf("want one schemalit diagnostic in writer.go, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "use schema.ReportV1") {
		t.Errorf("diagnostic does not name the registry constant: %s", diags[0])
	}
}
