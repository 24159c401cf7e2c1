package lintutil

import (
	"go/ast"
	"go/types"
	"sort"
)

// Held is the may-held set at one point of a function: every key (a lock
// or a pooled variable, named as the client chooses) that some path
// reaching that point still holds.
type Held map[string]bool

// Sorted returns the keys in order, so diagnostics that list them do not
// leak map order into the linter's output.
func (h Held) Sorted() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Walk is the path-sensitive may-held walk shared by the flow analyzers
// (lockio, lockorder, poolreturn). It runs one function body's
// statements in source order, threading a Held set through the client's
// hooks:
//
//   - every branch of an if/else-if chain and every switch, type-switch
//     and select clause runs on its own clone of the set; a switch without
//     default and an if without else add one more path that runs no
//     branch (a select without default blocks until a clause runs, so it
//     adds none);
//   - a loop body runs once, on a clone, joined with the set the loop
//     started from (the path that never enters the body);
//   - return and panic end a path, and the paths that do not end are
//     joined by union;
//   - function literals are never entered: a closure runs later, outside
//     this frame's state.
//
// Every hook may be nil.
type Walk struct {
	// Eval sees each node of every expression a statement evaluates, in
	// ast.Inspect pre-order, function literals skipped.
	Eval func(n ast.Node, held Held)
	// Bind sees each lhs/rhs pair of an assignment or var declaration
	// whose sides pair one to one, after both sides are evaluated.
	Bind func(lhs, rhs ast.Expr, held Held)
	// Defer sees a deferred call after its arguments are evaluated; the
	// call itself runs at exit and is not evaluated.
	Defer func(call *ast.CallExpr, held Held)
	// HandOff sees each value that leaves the frame: a returned result, a
	// sent value, an argument of a go statement.
	HandOff func(e ast.Expr, held Held)
	// Exit sees each path that leaves the function: at its
	// *ast.ReturnStmt, or at the body's *ast.BlockStmt when it falls off
	// the end. A panic ends its path without an Exit.
	Exit func(at ast.Node, held Held)
}

// Func walks body from an empty held set.
func (w *Walk) Func(body *ast.BlockStmt) {
	held := Held{}
	if !w.stmts(body.List, held) && w.Exit != nil {
		w.Exit(body, held)
	}
}

// stmts walks list on held and reports whether every path through it
// ended.
func (w *Walk) stmts(list []ast.Stmt, held Held) bool {
	for _, s := range list {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt walks one statement (nil walks nothing) and reports whether every
// path through it ended.
func (w *Walk) stmt(s ast.Stmt, held Held) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.eval(held, s.X)
		return isPanic(s.X)
	case *ast.AssignStmt:
		w.eval(held, s.Lhs...)
		w.eval(held, s.Rhs...)
		w.bind(held, s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				w.eval(held, vs.Values...)
				lhs := make([]ast.Expr, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = id
				}
				w.bind(held, lhs, vs.Values)
			}
		}
	case *ast.IncDecStmt:
		w.eval(held, s.X)
	case *ast.SendStmt:
		w.eval(held, s.Chan, s.Value)
		w.handOff(held, s.Value)
	case *ast.GoStmt:
		w.eval(held, s.Call.Args...)
		w.handOff(held, s.Call.Args...)
	case *ast.DeferStmt:
		w.eval(held, s.Call.Args...)
		if w.Defer != nil {
			w.Defer(s.Call, held)
		}
	case *ast.ReturnStmt:
		w.eval(held, s.Results...)
		w.handOff(held, s.Results...)
		if w.Exit != nil {
			w.Exit(s, held)
		}
		return true
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.eval(held, s.Cond)
		then := func(h Held) bool { return w.stmts(s.Body.List, h) }
		if s.Else == nil {
			return fork(held, true, then)
		}
		return fork(held, false, then, func(h Held) bool { return w.stmt(s.Else, h) })
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.eval(held, s.Cond)
		fork(held, true, func(h Held) bool {
			return w.stmts(s.Body.List, h) || w.stmt(s.Post, h)
		})
	case *ast.RangeStmt:
		w.eval(held, s.X)
		fork(held, true, func(h Held) bool { return w.stmts(s.Body.List, h) })
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.eval(held, s.Tag)
		return w.clauses(held, s.Body, false)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		return w.clauses(held, s.Body, false)
	case *ast.SelectStmt:
		return w.clauses(held, s.Body, true)
	}
	return false
}

// clauses forks one path per case or comm clause of a switch or select
// body.
func (w *Walk) clauses(held Held, body *ast.BlockStmt, isSelect bool) bool {
	noneRuns := !isSelect
	var paths []func(Held) bool
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				noneRuns = false
			}
			paths = append(paths, func(h Held) bool {
				w.eval(h, c.List...)
				return w.stmts(c.Body, h)
			})
		case *ast.CommClause:
			paths = append(paths, func(h Held) bool {
				w.stmt(c.Comm, h)
				return w.stmts(c.Body, h)
			})
		}
	}
	return fork(held, noneRuns, paths...)
}

// fork runs each path on a clone of held, then leaves in held the union
// of the paths that did not end, plus held itself when skip says a path
// may run none of them. It reports whether every path ended.
func fork(held Held, skip bool, paths ...func(Held) bool) bool {
	joined := Held{}
	ended := !skip
	if skip {
		for k := range held {
			joined[k] = true
		}
	}
	for _, path := range paths {
		h := make(Held, len(held))
		for k := range held {
			h[k] = true
		}
		if !path(h) {
			ended = false
			for k := range h {
				joined[k] = true
			}
		}
	}
	clear(held)
	for k := range joined {
		held[k] = true
	}
	return ended
}

func (w *Walk) eval(held Held, es ...ast.Expr) {
	if w.Eval == nil {
		return
	}
	for _, e := range es {
		if e != nil {
			Inspect(e, func(n ast.Node) { w.Eval(n, held) })
		}
	}
}

func (w *Walk) bind(held Held, lhs, rhs []ast.Expr) {
	if w.Bind == nil || len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		w.Bind(lhs[i], rhs[i], held)
	}
}

func (w *Walk) handOff(held Held, es ...ast.Expr) {
	if w.HandOff == nil {
		return
	}
	for _, e := range es {
		w.HandOff(e, held)
	}
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Inspect calls f for each node of n in pre-order, without entering
// function literals.
func Inspect(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// WalkLocks runs the may-held walk over body with sync.Mutex/RWMutex
// locks as the held keys. key names the mutex a Lock/RLock or
// Unlock/RUnlock call acts on; calls it cannot name are ignored. Unlock
// drops the key, and a deferred Unlock keeps it held to the end of the
// function. visit sees every other call: with acquires set to the key
// for a Lock/RLock (before the key joins held), empty for any call that
// is not a mutex operation.
func WalkLocks(info *types.Info, body *ast.BlockStmt, key func(*ast.CallExpr) (string, bool),
	visit func(call *ast.CallExpr, acquires string, held Held)) {
	w := &Walk{Eval: func(n ast.Node, held Held) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var acquire, isOp bool
		if fn := Callee(info, call); fn != nil {
			acquire, isOp = mutexOps[fn.FullName()]
		}
		if !isOp {
			visit(call, "", held)
			return
		}
		k, ok := key(call)
		switch {
		case !ok:
		case acquire:
			visit(call, k, held)
			held[k] = true
		default:
			delete(held, k)
		}
	}}
	w.Func(body)
}

// mutexOps maps each sync lock method to whether it acquires (true) or
// releases (false).
var mutexOps = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.Mutex).Unlock":    false,
	"(*sync.RWMutex).Unlock":  false,
	"(*sync.RWMutex).RUnlock": false,
}
