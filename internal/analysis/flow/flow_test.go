package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (a full file) and returns the value-flow
// view of the function named name plus the tools to inspect it.
func parseFunc(t *testing.T, src, name string) (*Func, *ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flowtest.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("flowtest", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != name {
			continue
		}
		return New(info, fd), fd, info
	}
	t.Fatalf("no function %q in source", name)
	return nil, nil, nil
}

// firstCall returns the first call expression in the body whose callee
// renders (syntactically) as fun.
func firstCall(t *testing.T, fd *ast.FuncDecl, fun string) *ast.CallExpr {
	t.Helper()
	var out *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if ok && types.ExprString(call.Fun) == fun {
			out = call
		}
		return true
	})
	if out == nil {
		t.Fatalf("no call to %s", fun)
	}
	return out
}

func TestResolveSingleAssignment(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g(base int) {
	n := base + 4
	m := n
	sink(m)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	got := types.ExprString(f.resolve(arg))
	if got != "base + 4" {
		t.Fatalf("Resolve(m) = %q, want %q", got, "base + 4")
	}
}

func TestResolveStopsAtReassignment(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g() {
	n := 1
	n = 2
	sink(n)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	if got := types.ExprString(f.resolve(arg)); got != "n" {
		t.Fatalf("Resolve(reassigned n) = %q, want n", got)
	}
}

func TestResolveStopsAtAddressTaken(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func mut(*int)
func g() {
	n := 1
	mut(&n)
	sink(n)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	if got := types.ExprString(f.resolve(arg)); got != "n" {
		t.Fatalf("Resolve(address-taken n) = %q, want n", got)
	}
}

func TestResolveStopsAtCompoundAssign(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g() {
	n := 1
	n += 2
	sink(n)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	if got := types.ExprString(f.resolve(arg)); got != "n" {
		t.Fatalf("Resolve(compound-assigned n) = %q, want n", got)
	}
}

func TestConstFolding(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g() {
	base := 8
	id := base + 2
	sink(id)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	n, ok := f.ConstInt(arg)
	if !ok || n != 10 {
		t.Fatalf("ConstInt(id) = %d,%v, want 10,true", n, ok)
	}
}

func TestCanonEquivalentExpressions(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int, int)
func g(base int, k int) {
	a := base + k
	tmp := k
	b := base + tmp
	sink(a, b)
}`, "g")
	call := firstCall(t, fd, "sink")
	ca, cb := f.Canon(call.Args[0]), f.Canon(call.Args[1])
	if ca != cb {
		t.Fatalf("Canon(a)=%q != Canon(b)=%q; aliases should canonicalize equal", ca, cb)
	}
}

func TestCanonDistinguishesDifferentValues(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int, int)
func g(base int) {
	a := base + 1
	b := base + 2
	sink(a, b)
}`, "g")
	call := firstCall(t, fd, "sink")
	if f.Canon(call.Args[0]) == f.Canon(call.Args[1]) {
		t.Fatal("Canon collapsed base+1 and base+2")
	}
}

func TestMentionsThroughAliases(t *testing.T) {
	f, fd, info := parseFunc(t, `package p
func sink(int)
func g(base int) {
	n := base * 2
	m := n + 1
	sink(m)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	mentions := f.Mentions(arg)
	var base types.Object
	for _, obj := range info.Defs {
		if obj != nil && obj.Name() == "base" {
			base = obj
		}
	}
	if base == nil {
		t.Fatal("no base object")
	}
	if !mentions[base] {
		t.Fatalf("Mentions(m) = %v, missing base", mentions)
	}
	for obj := range mentions {
		if obj.Name() == "n" || obj.Name() == "m" {
			t.Fatalf("Mentions leaked alias %s", obj.Name())
		}
	}
}

func TestLoopsEnclosing(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g(xs []int) {
	sink(0)
	for i := 0; i < len(xs); i++ {
		if i > 0 {
			sink(i)
		}
	}
}`, "g")
	if loops := f.LoopsEnclosing(firstCall(t, fd, "sink")); len(loops) != 0 {
		t.Fatalf("LoopsEnclosing(call before the loop) = %d loops, want 0", len(loops))
	}
	var inner *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			inner = ifs.Body.List[0].(*ast.ExprStmt).X.(*ast.CallExpr)
		}
		return true
	})
	loops := f.LoopsEnclosing(inner)
	if len(loops) != 1 {
		t.Fatalf("LoopsEnclosing(call in for/if) = %d loops, want 1", len(loops))
	}
	if _, ok := loops[0].(*ast.ForStmt); !ok {
		t.Fatalf("LoopsEnclosing(call in for/if) = %T, want *ast.ForStmt", loops[0])
	}
}

func TestRangeLoopVariable(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g(xs []int) {
	for i := range xs {
		id := i * 2
		sink(id)
	}
}`, "g")
	call := firstCall(t, fd, "sink")
	loops := f.LoopsEnclosing(call)
	if len(loops) != 1 {
		t.Fatalf("LoopsEnclosing = %d loops, want 1", len(loops))
	}
	hit := false
	for obj := range f.Mentions(call.Args[0]) {
		if loops[0].Pos() <= obj.Pos() && obj.Pos() < loops[0].End() {
			hit = true
		}
	}
	if !hit {
		t.Fatal("identity derived from range variable not seen as loop-dependent")
	}
}

func TestFuncLitAssignmentPoisons(t *testing.T) {
	f, fd, _ := parseFunc(t, `package p
func sink(int)
func g() {
	n := 1
	fn := func() { n = 2 }
	fn()
	sink(n)
}`, "g")
	arg := firstCall(t, fd, "sink").Args[0]
	if got := types.ExprString(f.resolve(arg)); got != "n" {
		t.Fatalf("Resolve(closure-mutated n) = %q, want n", got)
	}
}
