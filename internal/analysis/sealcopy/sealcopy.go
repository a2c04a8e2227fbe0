// Package sealcopy defines the nonce-safety analyzer: wire.Sealer,
// wire.Opener and wire.ReplayWindow carry mutable anti-replay state
// (the sealer's nonce counter, the opener's per-sender replay windows,
// the window an endpoint keeps per sender itself). Copying one by
// value forks that state — the copy and the original then reuse nonce
// counter values under the same AES-GCM key, which voids
// confidentiality, or accept replays the original already consumed.
// The analyzer enforces pointer-only flow for these types, in the
// spirit of go vet's copylocks.
package sealcopy

import (
	"go/ast"
	"go/types"

	"triadtime/internal/analysis"
)

// noCopyNames are the guarded type names, looked up in any package
// named "wire".
var noCopyNames = map[string]bool{"Sealer": true, "Opener": true, "ReplayWindow": true}

// Analyzer is the sealcopy analysis.
var Analyzer = &analysis.Analyzer{
	Name: "sealcopy",
	Doc: "forbids copying wire.Sealer/wire.Opener values (forked nonce " +
		"counters and replay windows); these types must flow as pointers",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFuncType(pass, n.Type)
				if n.Recv != nil {
					for _, field := range n.Recv.List {
						checkFieldType(pass, field)
					}
				}
			case *ast.FuncLit:
				checkFuncType(pass, n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkCopiedExpr(pass, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkCopiedExpr(pass, v)
				}
			case *ast.RangeStmt:
				checkRangeValue(pass, n)
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					checkCopiedExpr(pass, r)
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					checkCopiedExpr(pass, arg)
				}
			}
			return true
		})
	}
	return nil
}

// checkFuncType flags value parameters and results of guarded types —
// a declaration-level copy regardless of call sites.
func checkFuncType(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			checkFieldType(pass, field)
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			checkFieldType(pass, field)
		}
	}
}

func checkFieldType(pass *analysis.Pass, field *ast.Field) {
	t := pass.TypesInfo.TypeOf(field.Type)
	if name := noCopyType(t); name != "" {
		pass.Reportf(field.Type.Pos(), "declares a by-value %s (copies the nonce/replay state); use *%s", name, name)
	}
}

// checkCopiedExpr flags expressions whose evaluation copies an
// existing guarded value: variables, fields, derefs, and indexes.
// Constructor results and composite literals are initializations, not
// copies, and pass.
func checkCopiedExpr(pass *analysis.Pass, e ast.Expr) {
	name := noCopyType(pass.TypesInfo.TypeOf(e))
	if name == "" {
		return
	}
	if !copiesValue(e) {
		return
	}
	pass.Reportf(e.Pos(), "copies a %s by value (forks its nonce/replay state); share a *%s instead", name, name)
}

// copiesValue reports whether evaluating e duplicates existing state
// (as opposed to creating fresh state).
func copiesValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.ParenExpr:
		return copiesValue(e.X)
	default:
		return false
	}
}

func checkRangeValue(pass *analysis.Pass, rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	if name := noCopyType(pass.TypesInfo.TypeOf(rng.Value)); name != "" {
		pass.Reportf(rng.Value.Pos(), "range copies a %s element by value; store and range over *%s", name, name)
	}
}

// noCopyType reports the guarded type's name if t is, or structurally
// contains (struct field or array element, transitively), a guarded
// wire type by value. Pointers to guarded types are fine.
func noCopyType(t types.Type) string {
	if t == nil {
		return ""
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type) string
	walk = func(t types.Type) string {
		if t == nil || seen[t] {
			return ""
		}
		seen[t] = true
		t = types.Unalias(t)
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Name() == "wire" && noCopyNames[obj.Name()] {
				return obj.Name()
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if name := walk(u.Field(i).Type()); name != "" {
					return name
				}
			}
		case *types.Array:
			return walk(u.Elem())
		}
		return ""
	}
	return walk(t)
}
