// Package analysis implements simlint, the repository's determinism and
// simulated-kernel invariant checker.
//
// The repo's core guarantee — a simulation run is a pure function of its
// seed, and parallel experiment fleets are byte-identical to serial ones —
// is easy to break with one stray wall-clock read, map iteration, or
// unsanctioned goroutine. The analyzers here turn that convention into a
// machine-checked contract: cmd/simlint loads the whole module with
// go/parser + go/types (stdlib only) and reports every construct that can
// leak host nondeterminism into simulation results.
//
// The suite keeps only the rules no run-time gate replaces. Beside the
// syntactic rules, one module-wide pass finds package-level mutable state
// that concurrent engines under -jobs would share (sharedstate: writes,
// escaping addresses and pointer-receiver calls). Closed-enum
// exhaustiveness (kindswitch) and schema-tag registry checks (schemalit)
// complete the suite. Seed threading and hot-path allocations are left to
// run-time gates: the goldens, -race and the alloc gate (DESIGN.md §12
// and §13).
//
// Audited exceptions are annotated in the source:
//
//	//simlint:allow <rule>[,<rule>...] -- <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory (the allowreason rule flags bare directives). DESIGN.md
// ("Determinism rules") documents every rule and the reasoning behind it.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// A Diagnostic is one rule violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule names the analyzer that produced the diagnostic.
	Rule string
	// Message explains the violation.
	Message string
}

// String formats the diagnostic as "file:line:col: [rule] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// An Analyzer is one simlint rule.
type Analyzer struct {
	// Name is the rule name used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of what the rule enforces.
	Doc string
	// SimScope restricts the rule to simulation-result-producing packages
	// (see DeriveSimScope). Module-wide rules leave it false.
	SimScope bool
	// Run inspects one package and reports violations through the pass.
	// Module-scope rules that only accumulate may leave it nil.
	Run func(*Pass)
	// Finish, if non-nil, runs once after every package has been visited.
	// Rules that need whole-module state (sharedstate, schemalit)
	// report from here; the pass it receives has no Pkg.
	Finish func(*Pass)
}

// Analyzers returns the full simlint rule suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Walltime,
		GlobalRand,
		MapRange,
		SelectStmt,
		GoStmt,
		SimTime,
		Atomics,
		SharedState,
		KindSwitch,
		SchemaLit,
		AllowReason,
	}
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	// Fset maps positions for every loaded file.
	Fset *token.FileSet
	// Pkg is the package under analysis (nil during Finish).
	Pkg *Package
	// SimScope reports whether Pkg is in the simulation scope.
	SimScope bool

	rule  *Analyzer
	suite *Suite
}

// Reportf records a diagnostic for the pass's rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// State returns the suite-wide state for key, creating it with mk on first
// use. Cross-package rules accumulate into it from Run and report from
// Finish.
func (p *Pass) State(key string, mk func() any) any {
	st, ok := p.suite.state[key]
	if !ok {
		st = mk()
		p.suite.state[key] = st
	}
	return st
}

// InScope reports whether an import path is in the suite's simulation
// scope. Module-scope rules use it during Finish, when no single package
// is current.
func (p *Pass) InScope(path string) bool { return p.suite.simScope(path) }

// A Suite runs a set of analyzers over loaded packages and filters the
// results through the source tree's allow directives.
type Suite struct {
	fset      *token.FileSet
	analyzers []*Analyzer
	simScope  func(string) bool
	state     map[string]any
	// analyzed holds the import paths of every package in this run —
	// the universe inside which "declared in this module" checks
	// (closed enums, schema registries) resolve.
	analyzed map[string]bool
	allow    map[allowKey]bool
	bare     []token.Position // allow directives with no -- reason
	unknown  []allowUnknown   // allow directives naming no known rule
	diags    []Diagnostic
}

// allowKey identifies one allow directive's reach: a rule allowed on one
// line of one file.
type allowKey struct {
	file string
	line int
	rule string
}

type allowUnknown struct {
	pos  token.Position
	rule string
}

// NewSuite builds a suite. simScope decides which package paths the
// SimScope-restricted analyzers visit.
func NewSuite(fset *token.FileSet, analyzers []*Analyzer, simScope func(string) bool) *Suite {
	return &Suite{
		fset:      fset,
		analyzers: analyzers,
		simScope:  simScope,
		state:     map[string]any{},
		analyzed:  map[string]bool{},
		allow:     map[allowKey]bool{},
	}
}

// Run analyzes the packages in order and returns the surviving
// diagnostics sorted by position then rule — deterministic output being
// rather the point of this tool.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	for _, pkg := range pkgs {
		s.analyzed[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		s.collectAllows(pkg)
		inScope := s.simScope(pkg.Path)
		for _, a := range s.analyzers {
			if a.Run == nil || (a.SimScope && !inScope) {
				continue
			}
			a.Run(&Pass{Fset: s.fset, Pkg: pkg, SimScope: inScope, rule: a, suite: s})
		}
	}
	for _, a := range s.analyzers {
		if a.Finish != nil {
			a.Finish(&Pass{Fset: s.fset, rule: a, suite: s})
		}
	}
	kept := s.diags[:0]
	for _, d := range s.diags {
		if !s.allowed(d) {
			kept = append(kept, d)
		}
	}
	s.diags = kept
	SortDiagnostics(s.diags)
	return s.diags
}

// SortDiagnostics orders diagnostics by file, line, column, rule, message
// — the suite's deterministic output contract.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// collectAllows indexes every //simlint:allow directive in pkg. A
// directive covers its own line and the line directly below it, so both
// trailing and standalone-comment placement work:
//
//	t0 := time.Now() //simlint:allow walltime -- host elapsed metric
//
//	//simlint:allow walltime -- host elapsed metric
//	t0 := time.Now()
func (s *Suite) collectAllows(pkg *Package) {
	known := map[string]bool{}
	for _, a := range s.analyzers {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, hasReason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := s.fset.Position(c.Pos())
				if !hasReason {
					s.bare = append(s.bare, pos)
				}
				for _, r := range rules {
					if !known[r] {
						s.unknown = append(s.unknown, allowUnknown{pos: pos, rule: r})
					}
					s.allow[allowKey{pos.Filename, pos.Line, r}] = true
					s.allow[allowKey{pos.Filename, pos.Line + 1, r}] = true
				}
			}
		}
	}
}

// parseAllow extracts the rule list from one "//simlint:allow ..."
// comment, reporting whether a "-- reason" suffix is present and whether
// the comment is a directive at all.
func parseAllow(text string) (rules []string, hasReason, ok bool) {
	rest, ok := strings.CutPrefix(text, "//simlint:allow")
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false, false
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		hasReason = strings.TrimSpace(rest[i+len("--"):]) != ""
		rest = rest[:i]
	}
	for _, r := range strings.Split(rest, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules, hasReason, len(rules) > 0
}

func (s *Suite) allowed(d Diagnostic) bool {
	return s.allow[allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}]
}

// LintModule loads the module rooted at root and runs the full analyzer
// suite with the derived sim scope. It returns the diagnostics (file
// names relative to root) and any load error.
func LintModule(root string) ([]Diagnostic, error) {
	modPath, err := ModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	loader := NewLoader(root, modPath)
	pkgs, err := loader.LoadTree()
	if err != nil {
		return nil, err
	}
	return lintLoaded(root, modPath, loader.Fset(), pkgs), nil
}

// lintLoaded runs the full suite over an already-loaded module tree and
// makes the diagnostics' file names relative to root.
func lintLoaded(root, modPath string, fset *token.FileSet, pkgs []*Package) []Diagnostic {
	diags := NewSuite(fset, Analyzers(), DeriveSimScope(modPath, pkgs)).Run(pkgs)
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}
	SortDiagnostics(diags)
	return diags
}
