package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests run the suite over fixture packages under
// testdata/src (a GOPATH-style layout, so fixtures can import a stub
// "sim" package) and compare the diagnostics against `// want "regex"`
// comments, analysistest-style: every diagnostic must be matched by a
// want on its line, and every want must match exactly one diagnostic.
// Regexes match against the "[rule] message" rendering, so fixtures pin
// the rule as well as the text.

// fixtures is the one loader every corpus test shares: fixture packages
// and the GOROOT sources they import are parsed and type-checked once per
// test binary.
var fixtures struct {
	once   sync.Once
	loader *Loader
}

// testdataLoader returns the shared fixture loader.
func testdataLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures.once.Do(func() { fixtures.loader = NewLoader(root, "") })
	return fixtures.loader
}

func runOn(t *testing.T, l *Loader, pkgPath string, simScope bool) (*Package, []Diagnostic) {
	t.Helper()
	pkg, err := l.Load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	s := NewSuite(l.Fset(), Analyzers(), func(string) bool { return simScope })
	return pkg, s.Run([]*Package{pkg})
}

func TestRules(t *testing.T) {
	// One fixture package per rule, each with at least two positive cases
	// and a negative, plus the allow-directive fixture that must be clean.
	for _, pkgPath := range []string{
		"walltime",
		"globalrand",
		"maprange",
		"selectstmt",
		"gostmt",
		"simtime",
		"atomics",
		"sharedstate",
		"kindswitch",
		"schemalit",
		"allowreason",
		"allowed",
	} {
		t.Run(pkgPath, func(t *testing.T) {
			l := testdataLoader(t)
			pkg, diags := runOn(t, l, pkgPath, true)
			checkWants(t, l.Fset(), pkg, diags)
		})
	}
}

// want pairs one expectation regex with its source line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// collectWants parses the `// want ...` comments of a fixture package.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutWant(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(rest, -1) {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						if pat, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func cutWant(comment string) (string, bool) {
	const marker = "// want "
	for i := 0; i+len(marker) <= len(comment); i++ {
		if comment[i:i+len(marker)] == marker {
			return comment[i+len(marker):], true
		}
	}
	return "", false
}

func checkWants(t *testing.T, fset *token.FileSet, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkg)
	for _, d := range diags {
		text := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestScopeGating(t *testing.T) {
	l := testdataLoader(t)
	_, diags := runOn(t, l, "scoped", false)
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	if len(diags) != 1 || diags[0].Rule != "walltime" {
		t.Fatalf("out-of-scope package: got rules %v, want exactly [walltime] (sim-scope rules must not fire)", rules)
	}

	_, diags = runOn(t, l, "scoped", true)
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	if byRule["gostmt"] != 1 || byRule["walltime"] != 1 {
		t.Fatalf("in-scope package: got %v, want one gostmt and one walltime", byRule)
	}
}

// TestDeriveSimScope derives the simulation scope from the real
// repository's import graph: everything that transitively links against
// internal/sim is in, plus every command; the audited exclusions are out.
func TestDeriveSimScope(t *testing.T) {
	_, pkgs := loadRealTree(t)
	in := DeriveSimScope("oversub", pkgs)
	for _, path := range []string{
		"oversub", // the facade re-exports engine types; its output is harvested
		"oversub/internal/sim",
		"oversub/internal/sched",
		"oversub/internal/workload",
		"oversub/internal/trace",
		"oversub/internal/metrics",
		"oversub/internal/cluster",
		"oversub/cmd/hpdc21",
		"oversub/cmd/simlint",
	} {
		if !in(path) {
			t.Errorf("%s should be in simulation scope", path)
		}
	}
	for _, path := range []string{
		"oversub/internal/analysis", // never imports the engine
		"oversub/internal/schema",   // leaf constant registry
		"oversub/examples/quickstart",
	} {
		if in(path) {
			t.Errorf("%s should not be in simulation scope", path)
		}
	}
}

// TestSimScopeSeesPolicyFiles is a staleness check on the analyzed file
// set: the scheduling-policy zoo (policy*.go in internal/sched) must be
// among the files the loader parses for the in-scope sched package. If a
// policy implementation were split into a build-tagged or generated file
// the loader skips, the determinism rules would silently stop checking the
// policy hot paths while the scope test above kept passing.
func TestSimScopeSeesPolicyFiles(t *testing.T) {
	loader, pkgs := loadRealTree(t)
	var sched *Package
	for _, pkg := range pkgs {
		if pkg.Path == "oversub/internal/sched" {
			sched = pkg
			break
		}
	}
	if sched == nil {
		t.Fatal("oversub/internal/sched not loaded")
	}
	if in := DeriveSimScope("oversub", pkgs); !in(sched.Path) {
		t.Fatalf("%s must be in simulation scope", sched.Path)
	}
	loaded := map[string]bool{}
	for _, f := range sched.Files {
		loaded[filepath.Base(loader.Fset().Position(f.Pos()).Filename)] = true
	}
	for _, want := range []string{
		"policy.go", "policy_cfs.go", "policy_edf.go",
		"policy_shinjuku.go", "policy_oracle.go",
	} {
		if !loaded[want] {
			t.Errorf("internal/sched/%s missing from the analyzed file set", want)
		}
	}

	// Same staleness pin for the observability layer: blame attribution
	// and the fleet trace plumbing are in simulation scope, and their
	// files (exhaustive Kind switches) must stay in the analyzed set.
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	for path, files := range map[string][]string{
		"oversub/internal/trace": {"blame.go", "oracle.go", "analytics.go", "chrome.go"},
		// Concurrent fleet cells under -jobs run several engines at once:
		// these files are the code sharedstate polices.
		"oversub/internal/cluster": {"observe.go", "cluster.go"},
		"oversub/internal/sim":     {"engine.go", "rng.go"},
	} {
		pkg := byPath[path]
		if pkg == nil {
			t.Fatalf("%s not loaded", path)
		}
		if in := DeriveSimScope("oversub", pkgs); !in(pkg.Path) {
			t.Fatalf("%s must be in simulation scope", pkg.Path)
		}
		have := map[string]bool{}
		for _, f := range pkg.Files {
			have[filepath.Base(loader.Fset().Position(f.Pos()).Filename)] = true
		}
		for _, want := range files {
			if !have[want] {
				t.Errorf("%s/%s missing from the analyzed file set", path, want)
			}
		}
	}
}

// TestScopeExcludesAreLive pins the audit contract of the exclusion list:
// every entry carries a reason and still matches at least one loaded
// package — a dead entry is a stale audit that must be deleted.
func TestScopeExcludesAreLive(t *testing.T) {
	_, pkgs := loadRealTree(t)
	for _, ex := range simScopeExcludes {
		if strings.TrimSpace(ex.Reason) == "" {
			t.Errorf("exclude %q has no reason: every tolerated nondeterminism must be audited", ex.Path)
		}
		live := false
		for _, pkg := range pkgs {
			rel := strings.TrimPrefix(pkg.Path, "oversub/")
			if pkg.Path == "oversub" {
				rel = ""
			}
			if excluded(rel) && matchesExclude(ex, rel) {
				live = true
				break
			}
		}
		if !live {
			t.Errorf("exclude %q matches no package: delete the stale entry", ex.Path)
		}
	}
}

// matchesExclude reports whether rel is matched by this specific entry.
func matchesExclude(ex ScopeExclude, rel string) bool {
	if p, ok := strings.CutSuffix(ex.Path, "/..."); ok {
		return rel == p || strings.HasPrefix(rel, p+"/")
	}
	return rel == ex.Path
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		want      []string
		hasReason bool
	}{
		{"//simlint:allow walltime", []string{"walltime"}, false},
		{"//simlint:allow walltime -- reason text", []string{"walltime"}, true},
		{"//simlint:allow walltime --", []string{"walltime"}, false},
		{"//simlint:allow walltime --   ", []string{"walltime"}, false},
		{"//simlint:allow gostmt,maprange -- multi", []string{"gostmt", "maprange"}, true},
		{"//simlint:allow  spaced , rules ", []string{"spaced", "rules"}, false},
		{"//simlint:allowance is not a directive", nil, false},
		{"// simlint:allow not recognized with a space", nil, false},
		{"//simlint:allow", nil, false},
		{"// ordinary comment", nil, false},
	}
	for _, c := range cases {
		got, hasReason, ok := parseAllow(c.text)
		if (c.want == nil) == ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.want != nil)
			continue
		}
		if hasReason != c.hasReason {
			t.Errorf("parseAllow(%q) hasReason = %v, want %v", c.text, hasReason, c.hasReason)
		}
		if len(got) != len(c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
				break
			}
		}
	}
}

// TestEveryRuleHasCorpus is the meta-test: every analyzer in the suite
// must have a want-annotated fixture package of the same name that
// produces at least one diagnostic for it. A rule added without a corpus
// fails here before it can bit-rot.
func TestEveryRuleHasCorpus(t *testing.T) {
	// The allow-directive machinery is exercised by the "allowed" fixture,
	// which must stay silent; every rule below must make noise.
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			l := testdataLoader(t)
			_, diags := runOn(t, l, a.Name, true)
			for _, d := range diags {
				if d.Rule == a.Name {
					return
				}
			}
			t.Fatalf("rule %s produced no diagnostics in its fixture package testdata/src/%s", a.Name, a.Name)
		})
	}
}

// TestDiagnosticsSorted pins the deterministic output contract of the
// suite itself: diagnostics come back ordered by file, line, column, rule.
func TestDiagnosticsSorted(t *testing.T) {
	l := testdataLoader(t)
	_, diags := runOn(t, l, "walltime", true)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
