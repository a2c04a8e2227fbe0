// Package lockflow defines the lock-discipline analyzer for the live
// serving and transport layers: a sync mutex must not be held across a
// channel send, a TrustedNow call, or a datagram transmit (SendBatch,
// Sendmmsg, WriteTo). Channel sends can block indefinitely against a
// full or undrained channel, TrustedNow fans into the protocol engine
// (and in live bindings marshals through the platform's dispatch
// queue), and a socket write parks in the kernel whenever the send
// buffer is full — holding a shard or sealer lock across any of them
// turns backpressure into a server-wide stall, the availability
// failure mode the serving layer's admission control exists to
// prevent.
//
// The analysis is a conservative intra-procedural scan: it tracks
// Lock/RLock...Unlock/RUnlock pairs in statement order (a deferred
// unlock holds to function end) and does not model cross-branch lock
// state. Code this analyzer cannot see through should be restructured
// — the repo's own hot paths all unlock before blocking — or carry a
// //triad:nolint:lockflow argument.
//
// One rule applies module-wide, outside that scope: no package-level
// sync/atomic function (atomic.AddInt64, atomic.LoadUint64, ...) may be
// used. Their operand is a plain integer, so nothing stops a plain read
// or write of the same field beside them — a race the detector only
// catches under the right interleaving. The typed atomics (atomic.Int64
// and friends) have no plain access to forget.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"triadtime/internal/analysis"
	"triadtime/internal/analysis/flow"
)

// guardedPkgs names the package directories the invariant applies to:
// the live serving and transport layers, where locks guard hot shared
// state (shard queues, sealer nonce counters, the peer directory).
var guardedPkgs = map[string]bool{"serve": true, "transport": true}

// Analyzer is the lockflow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockflow",
	Doc: "flags mutexes held across channel sends, TrustedNow calls, or " +
		"datagram transmits in the live serving/transport packages, and " +
		"function-style sync/atomic calls anywhere",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
			pass.Reportf(id.Pos(), "function-style atomic.%s leaves its operand open to plain access; use a typed atomic (atomic.Int64, atomic.Uint64, ...)", fn.Name())
		}
	}
	if !guardedPkgs[analysis.PathBase(pass.PkgPath)] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fl := flow.New(pass.TypesInfo, fn)
				scanBlock(pass, fl, fn.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// scanBlock walks stmts in order, tracking which lock expressions are
// held. Nested blocks inherit a copy of the current set, so locks
// taken inside a branch do not leak out, and the state before the
// branch is what flows past it.
func scanBlock(pass *analysis.Pass, fl *flow.Func, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, op := lockOp(pass, fl, call); op != "" {
					switch op {
					case "lock":
						held[key] = true
					case "unlock":
						delete(held, key)
					}
					continue
				}
			}
			inspectExpr(pass, s.X, held)
		case *ast.DeferStmt:
			if key, op := lockOp(pass, fl, s.Call); op == "unlock" {
				// Deferred unlock: the lock is held for the remainder of
				// the function, which is exactly the window we must scan.
				_ = key
				continue
			}
			inspectExpr(pass, s.Call, held)
		case *ast.SendStmt:
			reportHeld(pass, s.Arrow, "channel send", held)
			inspectExpr(pass, s.Value, held)
		case *ast.BlockStmt:
			scanBlock(pass, fl, s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				scanStmtExprs(pass, s.Init, held)
			}
			inspectExpr(pass, s.Cond, held)
			scanBlock(pass, fl, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanBlock(pass, fl, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanBlock(pass, fl, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			inspectExpr(pass, s.X, held)
			scanBlock(pass, fl, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Tag != nil {
				inspectExpr(pass, s.Tag, held)
			}
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					scanBlock(pass, fl, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					scanBlock(pass, fl, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					if send, ok := cc.Comm.(*ast.SendStmt); ok {
						reportHeld(pass, send.Arrow, "channel send", held)
					}
					scanBlock(pass, fl, cc.Body, copyHeld(held))
				}
			}
		case *ast.GoStmt:
			// The goroutine body runs without the caller's locks.
		default:
			scanStmtExprs(pass, stmt, held)
		}
	}
}

// copyHeld clones the held-lock set so a nested block can take locks
// without mutating the state the enclosing scan continues with.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// scanStmtExprs inspects every expression nested in a statement that
// scanBlock has no structural handling for.
func scanStmtExprs(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			inspectExprShallow(pass, e, held)
		}
		return true
	})
}

// inspectExpr reports blocking operations nested anywhere in e.
func inspectExpr(pass *analysis.Pass, e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if sub, ok := n.(ast.Expr); ok {
			inspectExprShallow(pass, sub, held)
		}
		return true
	})
}

// blockingSends are method names that transmit datagrams and can park
// in the kernel against a full socket buffer: the batched syscall
// paths (SendBatch, and the raw Sendmmsg should one ever be called
// directly) and the stdlib per-datagram write (WriteTo).
var blockingSends = map[string]bool{
	"SendBatch": true,
	"Sendmmsg":  true,
	"WriteTo":   true,
}

// inspectExprShallow checks one expression node (non-recursively).
func inspectExprShallow(pass *analysis.Pass, e ast.Expr, held map[string]bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch {
	case sel.Sel.Name == "TrustedNow":
		reportHeld(pass, call.Pos(), "TrustedNow call", held)
	case blockingSends[sel.Sel.Name]:
		reportHeld(pass, call.Pos(), sel.Sel.Name+" call", held)
	}
}

func reportHeld(pass *analysis.Pass, pos token.Pos, what string, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	// Deterministic single report: pick the lexicographically first
	// held lock for stable output.
	min := ""
	for k := range held {
		if min == "" || k < min {
			min = k
		}
	}
	pass.Reportf(pos, "%s while holding %s; release the lock before blocking operations", what, min)
}

// lockOp classifies a call as a mutex lock/unlock on a receiver whose
// type is sync.Mutex or sync.RWMutex (possibly via pointer), returning
// a stable key for the receiver expression. Keys are value-flow
// canonical forms, so a lock taken through a pointer alias
// (mu := &s.mu; mu.Lock()) pairs with its direct unlock (s.mu.Unlock())
// — the leading & is stripped because &s.mu and s.mu name the same
// mutex.
func lockOp(pass *analysis.Pass, fl *flow.Func, call *ast.CallExpr) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", ""
	}
	if !isSyncMutex(pass.TypesInfo.TypeOf(sel.X)) {
		return "", ""
	}
	return strings.TrimPrefix(fl.Canon(sel.X), "&"), op
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
