// Package taskleak enforces the task-accounting half of the concurrency
// model (DESIGN.md §16). schedgo guarantees every goroutine is spawned
// through the Scheduler; taskleak guarantees every spawned task can be
// waited out and every armed timer can be disarmed:
//
//   - A closure handed to Scheduler.Go must signal completion — reach a
//     Done (WaitGroup or the Node bg/bgDone pattern), a Waiter.Wake, a
//     close(ch), or a channel send — somewhere in its body. A task with
//     no completion signal is invisible to Join and to Close barriers:
//     under the virtual clock it deadlocks the run-to-idle loop, and
//     under wall time it leaks past shutdown.
//   - The Timer returned by Scheduler.AfterFunc must be stoppable.
//     Discarding the result (or assigning it to _) makes the chain
//     uncancellable. A timer stored in a struct field must have a
//     Stop path somewhere in the package — either field.Stop() directly
//     or the swap-under-lock idiom (ka := f.kaTimer; ... ka.Stop()).
//     A timer kept in a local must be stopped in the same function or
//     escape it (returned, stored, or passed on).
//
// The check is heuristic on the signal side — it asks that a completion
// call exists, not that every path reaches it — because the invariant
// it targets is the missing-by-construction case: a fire-and-forget
// reader loop with no wg.Done, an AfterFunc chain with no Stop. Those
// are the leaks that have no cancellation path at all. Genuine
// fire-and-forget handoffs carry a //lint:allow taskleak justification.
//
// Exemption: the internal/sim package (the scheduler's own plumbing).
// Test files are never loaded.
package taskleak

import (
	"go/ast"
	"go/types"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags Scheduler.Go tasks with no completion signal and
// Scheduler.AfterFunc timers with no cancellation path.
var Analyzer = &analysis.Analyzer{
	Name: "taskleak",
	Doc: "every Scheduler.Go task must signal completion (Done/Wake/close/send) and every " +
		"Scheduler.AfterFunc timer must have a Stop path; unaccounted tasks deadlock the virtual " +
		"clock's run-to-idle loop and leak past shutdown under wall time (DESIGN.md §16)",
	Run: analysis.PerPackage(run),
}

func run(pass *analysis.Pass) {
	if lintutil.IsSchedulerPackage(pass.Pkg.Path()) {
		return
	}
	stops := collectFieldStops(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, stops)
		}
	}
}

// schedMethod reports whether call invokes the named method on a type
// declared in the scheduler package (sim.Scheduler, sim.Clock, ...).
func schedMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := lintutil.Callee(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && lintutil.IsSchedulerPackage(pkg.Path())
}

// --- Scheduler.Go: completion signals ---

// signalsCompletion reports whether the task body contains a completion
// signal at any depth: a call to a Done-suffixed func outside package
// context, a Waiter.Wake, a close(), or a channel send. Depth includes
// nested literals (a signal inside `defer func(){... w.Wake() }()`
// still counts) — the question is existence, not path coverage.
func signalsCompletion(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if isCompletionCall(info, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isCompletionCall(info *types.Info, call *ast.CallExpr) bool {
	// close(ch)
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := lintutil.Callee(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if name == "Wake" {
		return true
	}
	// wg.Done, n.bgDone, t.readerDone, ... — but not ctx.Done(), which
	// observes cancellation rather than announcing completion.
	if name == "Done" || (len(name) > 4 && name[len(name)-4:] == "Done") {
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "context" {
			return false
		}
		return true
	}
	return false
}

// --- Scheduler.AfterFunc: cancellation paths ---

// fieldStops records, per package, which struct fields holding timers
// have a Stop path: a direct x.field.Stop() call, or the alias idiom
// where the field is read into a local that is stopped.
type fieldStops map[string]bool

func collectFieldStops(pass *analysis.Pass) fieldStops {
	stops := make(fieldStops)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// x.field.Stop()
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Stop" {
					return true
				}
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					stops[inner.Sel.Name] = true
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					collectAliasStops(n.Body, stops)
				}
				return true
			}
			return true
		})
	}
	return stops
}

// collectAliasStops handles the swap-under-lock idiom:
//
//	ka := f.kaTimer
//	f.kaTimer = nil
//	...
//	ka.Stop()
//
// An assignment reading field F into local v, with v.Stop() anywhere in
// the same function, marks F stopped.
func collectAliasStops(body *ast.BlockStmt, stops fieldStops) {
	stopped := make(map[string]bool) // locals with v.Stop() in this func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				stopped[id.Name] = true
			}
		}
		return true
	})
	if len(stopped) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && stopped[id.Name] {
				stops[sel.Sel.Name] = true
			}
		}
		return true
	})
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, stops fieldStops) {
	info := pass.TypesInfo
	// Locals holding AfterFunc timers in this function, to be resolved
	// after the walk: stopped, escaped, or leaked.
	type localTimer struct {
		name string
		pos  ast.Node
	}
	var locals []localTimer
	stoppedLocals := make(map[string]bool)
	escapedLocals := make(map[string]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && schedMethod(info, call, "AfterFunc") {
				pass.Reportf(call.Pos(),
					"result of Scheduler.AfterFunc discarded: keep the Timer and Stop it on the cancellation path, or the chain re-arms forever (DESIGN.md §16)")
				// Fall through to the generic walk for nested calls.
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !schedMethod(info, call, "AfterFunc") || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						pass.Reportf(call.Pos(),
							"result of Scheduler.AfterFunc discarded: keep the Timer and Stop it on the cancellation path, or the chain re-arms forever (DESIGN.md §16)")
						continue
					}
					locals = append(locals, localTimer{name: lhs.Name, pos: call})
				case *ast.SelectorExpr:
					if !stops[lhs.Sel.Name] {
						pass.Reportf(call.Pos(),
							"timer stored in field %s is never stopped anywhere in the package: add a %s.Stop() on the shutdown path (DESIGN.md §16)",
							lhs.Sel.Name, lhs.Sel.Name)
					}
				}
			}
		case *ast.CallExpr:
			if schedMethod(info, n, "Go") && len(n.Args) == 1 {
				if lit, ok := n.Args[0].(*ast.FuncLit); ok {
					if !signalsCompletion(info, lit) {
						pass.Reportf(n.Pos(),
							"task spawned by Scheduler.Go never signals completion (no Done/Wake/close/send in its body): Join and Close barriers cannot observe it (DESIGN.md §16)")
					}
				}
			}
			// Track local-timer fates: v.Stop() and v escaping via call args.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					stoppedLocals[id.Name] = true
				}
			}
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					escapedLocals[id.Name] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					escapedLocals[id.Name] = true
				}
			}
		}
		return true
	})
	// A second pass over assignments: a local timer stored into anything
	// (field, map, another var) has escaped this function's custody.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
				escapedLocals[id.Name] = true
			}
		}
		return true
	})
	for _, lt := range locals {
		if stoppedLocals[lt.name] || escapedLocals[lt.name] {
			continue
		}
		pass.Reportf(lt.pos.Pos(),
			"timer %s from Scheduler.AfterFunc is neither stopped nor handed off in this function: the chain outlives its owner (DESIGN.md §16)", lt.name)
	}
}
