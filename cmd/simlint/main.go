// Command simlint enforces the repository's determinism contract: every
// simulation run must be a pure function of its seed, so parallel
// experiment fleets stay byte-identical to serial ones.
//
// Usage:
//
//	simlint [-list] [./...]
//
// simlint always analyzes the whole enclosing module (found by walking up
// from the working directory to go.mod); the package pattern argument is
// accepted for familiarity but does not narrow the analysis — the
// determinism contract is module-wide. Diagnostics print as
//
//	file:line:col: [rule] message
//
// and are suppressed by an audited annotation on the same line or the
// line above:
//
//	//simlint:allow <rule>[,<rule>...] -- <reason>
//
// -list prints the available rules and exits.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 the tree failed to
// load. The rules are documented in DESIGN.md ("Determinism rules" and
// "Analyzer architecture") and implemented in internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"oversub/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list the available rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	diags, err := analysis.LintModule(root)
	if err != nil {
		return fail(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
	return 2
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
