package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// KindSwitch enforces exhaustive switches over the repo's closed enums —
// trace.Kind above all: PR 6 added event kinds and every partially-updated
// switch silently dropped the new events from depth accounting and Chrome
// export. Go has no enum exhaustiveness, so this pass supplies it.
//
// A closed enum is a named type, declared in a package this run analyzes,
// whose underlying type is a basic non-boolean and which has at least two
// package-level constants of that exact type in its declaring package. A
// switch over a closed enum with no default clause must cover every member
// (compared by constant value, so aliases count once).
//
// The diagnostic names the missing members, qualified as the file would
// spell them, so the remedy is a paste: an empty "case A, B:" clause is
// semantically identical to an unmatched value falling through the switch
// and turns the silent gap into an explicit, reviewable line. Partial
// coverage that is genuinely intended is declared with a default clause
// (even an empty one), which exempts the switch.
var KindSwitch = &Analyzer{
	Name: "kindswitch",
	Doc:  "switches over closed enums (trace.Kind, ...) must cover every member or declare a default",
	Run:  runKindSwitch,
}

// enumMember is one distinct constant value of a closed enum.
type enumMember struct {
	name string
	pos  token.Pos
	val  constant.Value
}

func runKindSwitch(pass *Pass) {
	pkg := pass.Pkg
	info := pkg.Info
	enums := map[*types.TypeName][]enumMember{}
	for _, f := range pkg.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tn := closedEnumOf(pass, info.TypeOf(sw.Tag))
			if tn == nil {
				return true
			}
			members, ok := enums[tn]
			if !ok {
				members = enumMembers(tn)
				enums[tn] = members
			}
			if len(members) < 2 {
				return true
			}
			checkEnumSwitch(pass, file, sw, tn, members)
			return true
		})
	}
}

// closedEnumOf returns the type name of t when t is a candidate closed
// enum: a named, non-boolean basic type declared in a package this run
// analyzes (stdlib "enums" like reflect.Kind are out of scope — their
// member sets are not this repo's contract).
func closedEnumOf(pass *Pass, t types.Type) *types.TypeName {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsBoolean != 0 {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pass.suite.analyzed[obj.Pkg().Path()] {
		return nil
	}
	return obj
}

// enumMembers collects the package-level constants of the enum's exact
// type from its declaring package, in declaration order, keeping the first
// name for each distinct constant value.
func enumMembers(tn *types.TypeName) []enumMember {
	scope := tn.Pkg().Scope()
	var all []enumMember
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		all = append(all, enumMember{name: c.Name(), pos: c.Pos(), val: c.Val()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	seen := map[string]bool{}
	members := all[:0]
	for _, m := range all {
		key := m.val.ExactString()
		if seen[key] {
			continue
		}
		seen[key] = true
		members = append(members, m)
	}
	return members
}

func checkEnumSwitch(pass *Pass, file *ast.File, sw *ast.SwitchStmt, tn *types.TypeName, members []enumMember) {
	info := pass.Pkg.Info
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: partial coverage is declared intent
		}
		for _, e := range cc.List {
			tv, ok := info.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: coverage is not decidable
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	var missing []enumMember
	for _, m := range members {
		if !covered[m.val.ExactString()] {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return
	}
	qual := enumQualifier(pass, file, tn)
	names := make([]string, len(missing))
	for i, m := range missing {
		names[i] = qual + m.name
	}
	enumName := tn.Name()
	if qual != "" {
		enumName = qual + enumName
	}
	pass.Reportf(sw.Switch,
		"switch over %s has no default clause and misses %s: cover every member, or declare intended partial coverage with a default",
		enumName, strings.Join(names, ", "))
}

// enumQualifier returns the selector prefix ("trace.") needed to name the
// enum's members from file, or "" when the enum is package-local.
func enumQualifier(pass *Pass, file *ast.File, tn *types.TypeName) string {
	if tn.Pkg().Path() == pass.Pkg.Path {
		return ""
	}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != tn.Pkg().Path() {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name + "."
		}
		break
	}
	return tn.Pkg().Name() + "."
}
