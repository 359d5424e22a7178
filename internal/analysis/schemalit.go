package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaLit forces every schema tag — the "name/vN" version strings
// stamped into JSON artifacts (metrics exports, fleet summaries, diff
// reports) — to be a named constant in a schema registry package. A schema tag spelled
// inline is how two writers drift: the reader greps for one spelling, the
// writer bumps the other, and a version check silently never fires. With
// a single registry (internal/schema), bumping a version is a one-line
// diff and every producer and consumer moves together.
//
// A schema tag is a string literal matching ^[a-z][a-z0-9-]*/v[0-9]+$ —
// one lowercase dashed segment plus a version suffix. Import paths like
// "math/rand/v2" have more than one segment and never match. The registry
// is any analyzed package whose import path ends in "/schema" (or is
// "schema"); literals inside it are the declarations themselves.
//
// When the registry already declares a constant with the literal's exact
// value, the diagnostic names it ("use schema.FleetV1").
var SchemaLit = &Analyzer{
	Name:   "schemalit",
	Doc:    "schema version tags must be named constants in the schema registry package",
	Run:    runSchemaLit,
	Finish: finishSchemaLit,
}

const schemaLitKey = "schemalit"

var schemaTagRE = regexp.MustCompile(`^[a-z][a-z0-9-]*/v[0-9]+$`)

// schemaSite is one schema-tag literal outside the registry.
type schemaSite struct {
	lit *ast.BasicLit
	val string
}

// schemaRegistry is one registry package's constant table.
type schemaRegistry struct {
	name string
	// consts maps tag value -> constant name (first in name order).
	consts map[string]string
}

type schemaLitState struct {
	sites      []schemaSite
	registries []schemaRegistry
}

// isSchemaRegistryPath reports whether an import path names a schema
// registry package.
func isSchemaRegistryPath(path string) bool {
	return path == "schema" || strings.HasSuffix(path, "/schema")
}

func runSchemaLit(pass *Pass) {
	st := pass.State(schemaLitKey, func() any { return &schemaLitState{} }).(*schemaLitState)
	pkg := pass.Pkg

	if isSchemaRegistryPath(pkg.Path) {
		reg := schemaRegistry{name: pkg.Types.Name(), consts: map[string]string{}}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || c.Val().Kind() != constant.String {
				continue
			}
			if v := constant.StringVal(c.Val()); schemaTagRE.MatchString(v) {
				if _, dup := reg.consts[v]; !dup {
					reg.consts[v] = name
				}
			}
		}
		st.registries = append(st.registries, reg)
		return // literals inside the registry are the declarations
	}

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.ImportSpec); ok {
				return false // import paths are not schema tags
			}
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			val, err := strconv.Unquote(lit.Value)
			if err != nil || !schemaTagRE.MatchString(val) {
				return true
			}
			st.sites = append(st.sites, schemaSite{lit: lit, val: val})
			return true
		})
	}
}

func finishSchemaLit(pass *Pass) {
	st, ok := pass.suite.state[schemaLitKey].(*schemaLitState)
	if !ok {
		return
	}
	for _, site := range st.sites {
		hint := "declare it in the schema registry package and reference the constant"
		for _, reg := range st.registries {
			if name, ok := reg.consts[site.val]; ok {
				hint = "use " + reg.name + "." + name
				break
			}
		}
		pass.Reportf(site.lit.Pos(),
			"schema tag %s is spelled inline: version strings drift unless every writer and reader shares one registry constant — %s",
			site.lit.Value, hint)
	}
}
