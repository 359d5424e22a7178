package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// SharedState flags mutable package-level state in simulation scope. The
// runner executes independent runs (-jobs) as concurrent engines in one
// process, so any package-level variable that simulation code writes is a
// cross-engine race and a determinism leak, invisible to the per-run seed
// threading.
//
// A package-level var is "mutable" when the module contains evidence of
// mutation: a direct assignment or ++/--, a mutation through its elements
// (index or field store), its address escaping (&v handed away can be
// written anywhere), or a pointer-receiver method call on it or one of
// its elements (sigCounter.Add(1) writes through an implicit &v that
// never appears in the source). The call evidence is conservative: it
// cannot tell Add from Load, and state reachable only through pointer
// receivers is shared mutable state either way. Read-only lookup tables
// initialized at declaration — cost tables, name arrays — and
// value-receiver calls on them stay legal: they are constants in spirit,
// and Go just lacks const composites.
//
// The write scan is module-wide (a host-side package mutating a sim
// package's var is exactly as dangerous), but only vars declared in
// sim-scope packages are reported.
var SharedState = &Analyzer{
	Name:   "sharedstate",
	Doc:    "forbid mutable package-level state in simulation scope (cross-engine races between concurrent -jobs runs)",
	Run:    runSharedState,
	Finish: finishSharedState,
}

const sharedStateKey = "sharedstate"

type sharedWrite struct {
	pos  token.Pos
	what string // "assigned", "address taken", "pointer-receiver call v.M", ...
}

type sharedStateState struct {
	// decl maps a package-level var to its declaring ident position and
	// package path.
	decl map[*types.Var]sharedDecl
	// writes lists mutation evidence per var, in visit order.
	writes map[*types.Var][]sharedWrite
	order  []*types.Var
}

type sharedDecl struct {
	pos     token.Pos
	pkgPath string
	name    string
}

func runSharedState(pass *Pass) {
	st := pass.State(sharedStateKey, func() any {
		return &sharedStateState{decl: map[*types.Var]sharedDecl{}, writes: map[*types.Var][]sharedWrite{}}
	}).(*sharedStateState)
	pkg := pass.Pkg
	info := pkg.Info

	// Record this package's package-level var declarations.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					if v, ok := info.Defs[name].(*types.Var); ok {
						st.decl[v] = sharedDecl{pos: name.Pos(), pkgPath: pkg.Path, name: name.Name}
					}
				}
			}
		}
	}

	record := func(v *types.Var, pos token.Pos, what string) {
		if _, seen := st.writes[v]; !seen {
			st.order = append(st.order, v)
		}
		st.writes[v] = append(st.writes[v], sharedWrite{pos: pos, what: what})
	}

	// pkgVar resolves an expression to the package-level var at its base
	// (v, v.f, v[i], (*v).f ...), or nil.
	pkgVar := func(e ast.Expr) (*types.Var, bool) {
		direct := true
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				v, ok := info.Uses[x].(*types.Var)
				if !ok {
					v, ok = info.Defs[x].(*types.Var)
				}
				if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v, direct
				}
				return nil, false
			case *ast.SelectorExpr:
				// A qualified package var (pkg.V) resolves through the Sel.
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() &&
					v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v, direct
				}
				e, direct = x.X, false
			case *ast.IndexExpr:
				e, direct = x.X, false
			case *ast.StarExpr:
				e, direct = x.X, false
			case *ast.SliceExpr:
				e, direct = x.X, false
			default:
				return nil, false
			}
		}
	}

	// Module-wide mutation evidence scan.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if v, direct := pkgVar(lhs); v != nil {
						what := "assigned"
						if !direct {
							what = "mutated via element or field"
						}
						record(v, lhs.Pos(), what)
					}
				}
			case *ast.IncDecStmt:
				if v, direct := pkgVar(n.X); v != nil {
					what := "incremented"
					if !direct {
						what = "mutated via element or field"
					}
					record(v, n.X.Pos(), what)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v, _ := pkgVar(n.X); v != nil {
						record(v, n.X.Pos(), "address taken")
					}
				}
			case *ast.CallExpr:
				// A pointer-typed var is only read: the call does not take
				// its address.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && ptrMethod(info.Selections[sel]) {
					if v, _ := pkgVar(sel.X); v != nil && !isPointer(v.Type()) {
						record(v, sel.Pos(), "pointer-receiver call "+types.ExprString(sel))
					}
				}
			}
			return true
		})
	}
}

// ptrMethod reports whether s selects a method with a pointer receiver.
func ptrMethod(s *types.Selection) bool {
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Obj().Type().(*types.Signature).Recv()
	return recv != nil && isPointer(recv.Type())
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func finishSharedState(pass *Pass) {
	st, ok := pass.suite.state[sharedStateKey].(*sharedStateState)
	if !ok {
		return
	}
	// Deterministic report order: by declaring package, then name.
	vars := append([]*types.Var(nil), st.order...)
	sort.Slice(vars, func(i, j int) bool {
		a, b := st.decl[vars[i]], st.decl[vars[j]]
		if a.pkgPath != b.pkgPath {
			return a.pkgPath < b.pkgPath
		}
		return a.name < b.name
	})
	for _, v := range vars {
		d, declared := st.decl[v]
		if !declared || !pass.InScope(d.pkgPath) {
			continue
		}
		w := st.writes[v][0]
		pos := pass.Fset.Position(w.pos)
		pass.Reportf(d.pos,
			"package-level var %s is mutable (%s at %s:%d); simulation state must live in per-run structures so shards never share it",
			d.name, w.what, filepath.Base(pos.Filename), pos.Line)
	}
}
