package analysis

import (
	"strconv"
	"strings"
)

// Simulation scope — the set of packages whose code must be a
// deterministic function of the run seed — is derived from the module's
// import graph instead of a hand-maintained directory list: every package
// that (transitively) imports internal/sim produces or renders simulation
// state, and every command under cmd/ renders experiment output. PR 2's
// simScopeDirs list had to be appended manually by every PR since; the
// reverse-import derivation makes a new simulation package in-scope the
// moment it links against the engine.

// simRootRel is the module-relative import path of the simulation engine,
// the root of the reverse-import derivation.
const simRootRel = "internal/sim"

// A ScopeExclude removes one derived package (or a path prefix, when Path
// ends in "/...") from simulation scope, with the audit reason recorded
// next to it. Exclusions are for packages that import the engine for its
// types but whose output never feeds an experiment result.
type ScopeExclude struct {
	Path   string // module-relative import path ("x/y" or "x/...")
	Reason string
}

// simScopeExcludes is the audited exclusion list. Keep it short: every
// entry here is a package where nondeterminism is tolerated by design.
var simScopeExcludes = []ScopeExclude{
	{
		Path: "examples/...",
		Reason: "pedagogical demos for the README; they print to stdout for humans and " +
			"are never harvested into experiment tables, golden files, or benchmark reports",
	},
}

// excluded reports whether rel (a module-relative path) matches an entry
// of simScopeExcludes.
func excluded(rel string) bool {
	for _, ex := range simScopeExcludes {
		if p, ok := strings.CutSuffix(ex.Path, "/..."); ok {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				return true
			}
		} else if rel == ex.Path {
			return true
		}
	}
	return false
}

// DeriveSimScope computes the simulation-scope predicate from the loaded
// packages' import graph: the engine package itself, every package that
// transitively imports it, and every command under cmd/ (commands render
// experiment output, so nondeterminism there corrupts results just as
// surely), minus the audited exclusions.
func DeriveSimScope(modulePath string, pkgs []*Package) func(string) bool {
	simRoot := modulePath + "/" + simRootRel
	// rev[p] lists the in-module packages importing p.
	rev := map[string][]string{}
	for _, pkg := range pkgs {
		for _, imp := range packageImports(pkg) {
			if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
				rev[imp] = append(rev[imp], pkg.Path)
			}
		}
	}
	inScope := map[string]bool{}
	queue := []string{simRoot}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if inScope[p] {
			continue
		}
		inScope[p] = true
		queue = append(queue, rev[p]...)
	}
	return func(path string) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if path == modulePath {
			rel = ""
		}
		if excluded(rel) {
			return false
		}
		if strings.HasPrefix(path, modulePath+"/cmd/") {
			return true
		}
		return inScope[path]
	}
}

// packageImports returns the distinct import paths of pkg's files.
func packageImports(pkg *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	return out
}
