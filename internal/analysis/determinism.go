package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Walltime forbids reading the host wall clock. A simulation result that
// depends on time.Now is not a function of the seed, and two runs of the
// same configuration stop being comparable. The runner's host-side
// plumbing (elapsed metrics, heartbeats) carries audited allow
// annotations instead.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid host wall-clock reads (time.Now, time.Since, tickers, ...)",
	Run:  runWalltime,
}

// walltimeFuncs are the time-package functions that observe or depend on
// the host clock. Plain time.Duration values and constants stay legal:
// they are just numbers.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runWalltime(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !walltimeFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the host wall clock; simulation results must depend only on the seed and virtual time (sim.Time)",
				fn.Name())
			return true
		})
	}
}

// GlobalRand forbids math/rand (v1 and v2). Its global functions share
// process-wide state across concurrent runs, and even a locally
// constructed source bypasses the engine's seed threading; all randomness
// must come from the run's *sim.Rand.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid math/rand; randomness must come from the run's seeded *sim.Rand",
	Run:  runGlobalRand,
}

func runGlobalRand(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && isRandPkg(path) {
				pass.Reportf(imp.Pos(),
					"import of %s: use the run's seeded *sim.Rand so results are a pure function of the seed", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on a *rand.Rand value; the import is already flagged
			}
			pass.Reportf(sel.Pos(),
				"%s.%s draws from math/rand; use the run's seeded *sim.Rand", fn.Pkg().Name(), fn.Name())
			return true
		})
	}
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// MapRange forbids ranging over maps in simulation scope. Go randomizes
// map iteration order per run, so any map walk whose effects reach a
// result, an event ordering, or printed output breaks seed-reproducibility.
// Provably order-insensitive loops carry an allow annotation.
var MapRange = &Analyzer{
	Name:     "maprange",
	Doc:      "forbid range over maps in simulation scope (iteration order is randomized)",
	SimScope: true,
	Run:      runMapRange,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Reportf(rs.X.Pos(),
				"range over map %s: iteration order is nondeterministic and must not reach simulation results; use an ordered registry or sort the keys",
				types.ExprString(rs.X))
			return true
		})
	}
}

// SelectStmt forbids multi-case selects in simulation scope: when more
// than one case is ready the runtime picks pseudo-randomly, which injects
// scheduling nondeterminism the virtual clock cannot see. Simulated
// waiting belongs on the engine's event queue, and sim.Proc switches
// coroutines without channels.
var SelectStmt = &Analyzer{
	Name:     "selectstmt",
	Doc:      "forbid multi-case select in simulation scope (runtime picks cases pseudo-randomly)",
	SimScope: true,
	Run:      runSelectStmt,
}

func runSelectStmt(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			comm := 0
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				pass.Reportf(sel.Pos(),
					"select with %d communication cases: the runtime chooses among ready cases pseudo-randomly; schedule through the engine's event queue instead", comm)
			}
			return true
		})
	}
}

// GoStmt forbids go statements in simulation scope. The determinism model
// requires exactly one simulated entity to execute at any instant
// (DESIGN.md §5); a raw goroutine hands ordering to the host scheduler.
// Simulated threads are iter.Pull coroutines, so the simulator itself
// needs no go statement.
var GoStmt = &Analyzer{
	Name:     "gostmt",
	Doc:      "forbid go statements in simulation scope (one simulated entity at a time)",
	SimScope: true,
	Run:      runGoStmt,
}

func runGoStmt(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(g.Pos(),
				"go statement inside the simulated kernel hands event ordering to the host scheduler; use sim.Proc coroutines so exactly one simulated entity runs at a time")
			return true
		})
	}
}
