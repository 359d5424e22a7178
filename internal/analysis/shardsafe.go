package analysis

import (
	"go/ast"
	"go/types"
)

// ShardSafe closes the mutation channel sharedstate cannot see: method
// calls. sharedstate flags package-level vars with direct write evidence
// (assignment, ++, element store, &v escaping), but a pointer-receiver
// method call — sigCounter.Add(1) — mutates the var through an implicit
// &v that never appears in the source as an address-taking. Concurrent
// runner jobs (-jobs) execute several engines at once in one process, so
// such a call is a cross-engine data race and a determinism leak exactly
// like a plain write; simulation-scope code may not touch package-level
// vars through pointer-receiver methods at all.
//
// The rule is conservative on purpose: it cannot tell a mutating call
// (Add) from a read (Load), and flags both — state whose reads are only
// reachable through pointer receivers is still shared mutable state. A
// use that is genuinely safe across engines (its contract depends only on
// values being distinct, never on which engine drew which) carries an audited
// //simlint:allow shardsafe directive. Value-receiver calls on read-only
// lookup tables stay legal, as in sharedstate.
var ShardSafe = &Analyzer{
	Name:     "shardsafe",
	Doc:      "forbid pointer-receiver method calls on package-level vars in simulation scope (hidden cross-engine mutation between concurrent -jobs runs)",
	SimScope: true,
	Run:      runShardSafe,
}

func runShardSafe(pass *Pass) {
	info := pass.Pkg.Info

	// base resolves a method receiver expression to the package-level var
	// at its root (v, v.f, v[i], (*v).f ...), or nil.
	base := func(e ast.Expr) *types.Var {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				v, ok := info.Uses[x].(*types.Var)
				if ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v
				}
				return nil
			case *ast.SelectorExpr:
				// A qualified package var (pkg.V) resolves through the Sel.
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() &&
					v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return nil
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			sig, ok := s.Obj().Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
				return true
			}
			v := base(sel.X)
			if v == nil {
				return true
			}
			if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
				// A pointer-typed var: the call reads the pointer, it does
				// not take the var's address. Mutation of the pointee is
				// sharedstate's "address taken" territory at the point the
				// pointer was formed.
				return true
			}
			pass.Reportf(sel.Pos(),
				"pointer-receiver call %s.%s on package-level var %s hides a cross-shard mutation; move the state into per-run structures or annotate the shard-safety argument",
				v.Name(), s.Obj().Name(), v.Name())
			return true
		})
	}
}
