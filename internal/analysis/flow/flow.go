// Package flow is the suite's lightweight intra-procedural value-flow
// helper: def-use chains over go/ast + go/types, with no SSA
// dependency. It answers the three questions the dataflow analyzers
// keep asking about an expression inside one function body:
//
//   - what does this expression *mean* — resolve/Canon substitute
//     single-assignment locals with their defining expressions and fold
//     constants, so `idents`, `srv.Shards()+len(dconns)` and a literal
//     all reduce to comparable symbolic keys;
//   - what does it *depend on* — Mentions collects the objects a
//     resolved expression reads, which is how noncepart decides whether
//     a sealer identity varies with a loop variable;
//   - where does it *sit* — LoopsEnclosing gives the for/range
//     statements around a node, which is how noncepart decides whether
//     a construction runs once or on every iteration.
//
// The analysis is deliberately conservative: a local that is assigned
// more than once, assigned from a multi-value expression, mutated by
// ++/--/op=, bound by a range clause, or address-taken is "poisoned"
// and resolves to itself. Wrong answers are impossible; incomplete ones
// merely make an analyzer quieter, never noisier about correct code.
package flow

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// maxDepth bounds resolution so pathological chains cannot recurse
// unboundedly (shadowing chains are finite but cheap insurance).
const maxDepth = 32

// Func is the value-flow view of one function body.
type Func struct {
	info    *types.Info
	defs    map[*types.Var]ast.Expr // sole defining expression
	poison  map[*types.Var]bool     // multiply-assigned / mutated / escaped
	loopVar map[*types.Var]bool     // range keys/values, for-init variables
	parents map[ast.Node]ast.Node
}

// New builds the value-flow view for a function declaration or
// literal. fn must be an *ast.FuncDecl or *ast.FuncLit with a body;
// any other node yields an empty (but usable) view.
func New(info *types.Info, fn ast.Node) *Func {
	f := &Func{
		info:    info,
		defs:    map[*types.Var]ast.Expr{},
		poison:  map[*types.Var]bool{},
		loopVar: map[*types.Var]bool{},
		parents: map[ast.Node]ast.Node{},
	}
	var body *ast.BlockStmt
	switch n := fn.(type) {
	case *ast.FuncDecl:
		body = n.Body
	case *ast.FuncLit:
		body = n.Body
	}
	if body != nil {
		f.collect(body)
	}
	return f
}

// collect records definitions, poisons, loop variables, and the parent
// chain in one walk. Function literals are walked too: they share the
// enclosing scope, so their assignments must poison captured locals.
func (f *Func) collect(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			f.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)

		switch s := n.(type) {
		case *ast.AssignStmt:
			f.collectAssign(s)
		case *ast.IncDecStmt:
			f.poisonExpr(s.X)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				f.poisonExpr(e)
				if v := f.varOf(e); v != nil {
					f.loopVar[v] = true
				}
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					if v := f.varOf(lhs); v != nil {
						f.loopVar[v] = true
					}
				}
			}
		case *ast.UnaryExpr:
			// Address-taken locals can be mutated through the pointer;
			// their recorded definition is no longer the whole story.
			if s.Op == token.AND {
				f.poisonExpr(s.X)
			}
		}
		return true
	})
}

func (f *Func) collectAssign(s *ast.AssignStmt) {
	if s.Tok != token.DEFINE && s.Tok != token.ASSIGN {
		// Compound assignment (+=, |=, ...): the variable's value now
		// depends on its own history.
		for _, lhs := range s.Lhs {
			f.poisonExpr(lhs)
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		// Multi-value unpacking: no single defining expression per name.
		for _, lhs := range s.Lhs {
			f.poisonExpr(lhs)
		}
		return
	}
	for i, lhs := range s.Lhs {
		v := f.varOf(lhs)
		if v == nil {
			continue
		}
		if _, dup := f.defs[v]; dup || f.poison[v] {
			f.poison[v] = true
			delete(f.defs, v)
			continue
		}
		f.defs[v] = s.Rhs[i]
	}
}

// poisonExpr marks the variable behind an lvalue expression (if it is
// a plain local identifier) as unresolvable.
func (f *Func) poisonExpr(e ast.Expr) {
	if v := f.varOf(e); v != nil {
		f.poison[v] = true
		delete(f.defs, v)
	}
}

// varOf returns the local *types.Var an identifier expression names,
// or nil for anything else (selectors, indexes, blank, globals).
func (f *Func) varOf(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var obj types.Object
	if d, ok := f.info.Defs[id]; ok {
		obj = d
	} else {
		obj = f.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// resolve returns e's sole defining expression when e is a
// single-assignment, unpoisoned local — recursively, so a chain of
// aliases reduces to its source. Anything else returns unchanged.
func (f *Func) resolve(e ast.Expr) ast.Expr {
	for depth := 0; depth < maxDepth; depth++ {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		v := f.varOf(e)
		if v == nil || f.poison[v] || f.loopVar[v] {
			return e
		}
		def, ok := f.defs[v]
		if !ok {
			return e // parameter, global, or closure-captured
		}
		e = def
	}
	return e
}

// constVal returns e's constant value when one is derivable, or nil:
// either the type checker recorded one, or e reduces to arithmetic over
// such values after single-assignment locals are substituted (go/types
// only folds spec-constant expressions; `base := 8; base + 2` is a
// variable expression to it, but a known 10 to this helper).
func (f *Func) constVal(e ast.Expr, depth int) (v constant.Value) {
	if e == nil || depth > maxDepth {
		return nil
	}
	if tv, ok := f.info.Types[e]; ok && tv.Value != nil {
		return tv.Value
	}
	if r := f.resolve(e); r != e {
		return f.constVal(r, depth+1)
	}
	// constant.BinaryOp/UnaryOp panic on operand mismatches (e.g. a
	// shift count that is not an unsigned); treat any such case as
	// simply not constant.
	defer func() {
		if recover() != nil {
			v = nil
		}
	}()
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.constVal(e.X, depth+1)
	case *ast.BinaryExpr:
		x := f.constVal(e.X, depth+1)
		y := f.constVal(e.Y, depth+1)
		if x == nil || y == nil {
			return nil
		}
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.AND_NOT:
			return constant.BinaryOp(x, e.Op, y)
		case token.SHL, token.SHR:
			n, ok := constant.Uint64Val(y)
			if !ok {
				return nil
			}
			return constant.Shift(x, e.Op, uint(n))
		}
	case *ast.UnaryExpr:
		x := f.constVal(e.X, depth+1)
		if x == nil {
			return nil
		}
		switch e.Op {
		case token.SUB, token.ADD, token.XOR:
			return constant.UnaryOp(e.Op, x, 0)
		}
	}
	return nil
}

// ConstInt returns e's value when it is a derivable integer constant
// (see constVal).
func (f *Func) ConstInt(e ast.Expr) (int64, bool) {
	v := f.constVal(e, 0)
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// Canon renders e as a stable symbolic key: single-assignment locals
// are replaced by their definitions, constants fold to their exact
// value, and everything else prints structurally. Two expressions with
// equal Canon strings are guaranteed to evaluate equal values whenever
// the non-local names they mention are equal — which is exactly the
// comparison the analyzers need ("are these two sealer identities the
// same expression?", "is the guard comparing against the stored
// value?").
func (f *Func) Canon(e ast.Expr) string {
	return f.canon(e, 0)
}

func (f *Func) canon(e ast.Expr, depth int) string {
	if depth > maxDepth {
		return "<deep>"
	}
	if v := f.constVal(e, 0); v != nil {
		return v.ExactString()
	}
	e = f.resolve(e)
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return f.canon(e.X, depth+1)
	case *ast.SelectorExpr:
		return f.canon(e.X, depth+1) + "." + e.Sel.Name
	case *ast.BinaryExpr:
		return "(" + f.canon(e.X, depth+1) + e.Op.String() + f.canon(e.Y, depth+1) + ")"
	case *ast.UnaryExpr:
		return e.Op.String() + f.canon(e.X, depth+1)
	case *ast.StarExpr:
		return "*" + f.canon(e.X, depth+1)
	case *ast.IndexExpr:
		return f.canon(e.X, depth+1) + "[" + f.canon(e.Index, depth+1) + "]"
	case *ast.CallExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = f.canon(a, depth+1)
		}
		return f.canon(e.Fun, depth+1) + "(" + strings.Join(parts, ",") + ")"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T@%d>", e, e.Pos())
	}
}

// Mentions collects every object a resolved expression reads: the
// leaves of e after alias substitution. A sealer identity whose
// Mentions include a loop variable varies per iteration; one whose
// Mentions are all loop-invariant does not.
func (f *Func) Mentions(e ast.Expr) map[types.Object]bool {
	out := map[types.Object]bool{}
	f.mentions(e, out, 0)
	return out
}

func (f *Func) mentions(e ast.Expr, out map[types.Object]bool, depth int) {
	if e == nil || depth > maxDepth {
		return
	}
	e = f.resolve(e)
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := f.info.Uses[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			if def, has := f.defs[v]; has && !f.poison[v] && !f.loopVar[v] {
				// An alias: recurse into what it stands for instead of
				// reporting the alias itself.
				f.mentions(def, out, depth+1)
				return true
			}
		}
		out[obj] = true
		return true
	})
}

// LoopsEnclosing returns the for/range statements enclosing n,
// innermost first. An object *declared* within one of these spans can
// take a different value on every pass over n even if it is not the
// iteration variable itself (a per-iteration local).
func (f *Func) LoopsEnclosing(n ast.Node) []ast.Node {
	var out []ast.Node
	for p := f.parents[n]; p != nil; p = f.parents[p] {
		switch p.(type) {
		case *ast.RangeStmt, *ast.ForStmt:
			out = append(out, p)
		}
	}
	return out
}
