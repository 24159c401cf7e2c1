// Package lockorder hunts potential deadlocks in the whole-program
// lock-acquisition graph (DESIGN.md §16). The repo holds 30+ mutexes —
// netmodel/asgraph cache shards, session.Manager, the relay server and
// flows, bootstrap lease state — and nothing but convention keeps their
// nesting acyclic; one refactor that locks B inside A where another path
// locks A inside B is a deadlock that only fires under production
// interleavings.
//
// The analysis is a lockdep-style over-approximation:
//
//   - A lock is identified by its declaration site, not its instance:
//     the field it lives in (pkg.Type.field) or the package-level
//     variable holding it (pkg.var). Every *Node.mu is one graph node.
//   - Within a function, a lock counts as held from Lock/RLock to the
//     matching Unlock/RUnlock on the same path of the shared may-held
//     walk (lintutil.Walk, the lockio model): branches run on their own
//     copies of the held set and are joined by union, a branch that
//     returns ends its path, and a deferred unlock holds to the end. So
//     `Lock(); if c { Unlock(); return }` still holds the lock for the
//     code after the guard. Read and write locks are not distinguished —
//     an R-W crossing deadlocks just as well.
//   - Acquiring v while u is held adds the edge u→v. Calling a function
//     (resolvable, with a body in the analyzed program) while u is held
//     adds u→v for every v that callee may acquire transitively.
//     Function literals are not entered: a closure handed to the
//     scheduler runs later, outside the critical section, and dynamic
//     calls (interface methods without bodies, function values) cannot
//     be resolved — the lockio analyzer separately keeps transport
//     handlers from running under a caller's lock.
//   - A cycle through two or more distinct locks is reported once, as a
//     deterministic trace rotated to the lexicographically smallest
//     lock, with one example acquisition site per edge.
//
// Same-lock self-edges (lock A held while locking another instance of
// A) are not reported: instance-ordered acquisition — two cache shards
// taken in index order — is legal and indistinguishable statically.
// *_test.go files are exempt.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer reports cycles in the whole-program lock-acquisition graph.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "forbid cycles in the whole-program lock-acquisition graph: two paths nesting " +
		"the same locks in opposite orders are a deadlock waiting for its interleaving (DESIGN.md §16)",
	RunProgram: run,
}

// funcInfo is the per-function summary used for the interprocedural
// pass.
type funcInfo struct {
	pkg      *analysis.PackageInfo
	acquires map[string]bool          // locks acquired anywhere in the body
	callees  map[*types.Func]struct{} // resolvable program callees
}

type state struct {
	prog  *analysis.Program
	funcs map[*types.Func]*funcInfo
	// trans[f] = locks f may acquire, transitively through program calls.
	trans map[*types.Func]map[string]bool
	edges map[[2]string]token.Position
	// calls under held locks, resolved against trans in a second pass.
	heldCalls []heldCall
}

type heldCall struct {
	callee *types.Func
	held   []string
	pos    token.Position
}

func run(prog *analysis.Program) (interface{}, error) {
	st := &state{
		prog:  prog,
		funcs: make(map[*types.Func]*funcInfo),
		trans: make(map[*types.Func]map[string]bool),
		edges: make(map[[2]string]token.Position),
	}
	// Pass 1: collect function summaries, intraprocedural edges, and
	// call sites under held locks.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if lintutil.IsTestFile(prog.Filename(f.Pos())) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				fi := &funcInfo{pkg: pkg, acquires: make(map[string]bool), callees: make(map[*types.Func]struct{})}
				st.funcs[fn] = fi
				lintutil.WalkLocks(pkg.TypesInfo, fd.Body, fi.lockKey, func(call *ast.CallExpr, acquires string, held lintutil.Held) {
					st.visit(fi, call, acquires, held)
				})
			}
		}
	}
	// Pass 2: transitive acquire sets, then the interprocedural edges.
	st.computeTransitive()
	for _, hc := range st.heldCalls {
		for v := range st.trans[hc.callee] {
			for _, h := range hc.held {
				st.addEdge(h, v, hc.pos)
			}
		}
	}
	st.reportCycles()
	return nil, nil
}

// --- pass 1: per-function walk ---

// visit records one call of the may-held walk: an acquisition adds an
// edge from every held lock, and a call to a program function under
// held locks is kept for the interprocedural pass.
func (st *state) visit(fi *funcInfo, call *ast.CallExpr, acquires string, held lintutil.Held) {
	if acquires != "" {
		fi.acquires[acquires] = true
		for h := range held {
			st.addEdge(h, acquires, st.prog.Fset.Position(call.Pos()))
		}
		return
	}
	callee := lintutil.Callee(fi.pkg.TypesInfo, call)
	if callee == nil {
		return
	}
	fi.callees[callee] = struct{}{}
	if len(held) > 0 {
		st.heldCalls = append(st.heldCalls, heldCall{callee: callee, held: held.Sorted(), pos: st.prog.Fset.Position(call.Pos())})
	}
}

// lockKey names the mutex being locked by its declaration site: the
// struct field holding it (pkg.Type.field) or the package-level
// variable embedding it (pkg.var). Local mutexes return !ok — they
// cannot participate in cross-function cycles.
func (fi *funcInfo) lockKey(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	info := fi.pkg.TypesInfo
	switch lockExpr := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// n.mu.Lock(): key the field on its receiver's named type.
		recvT := info.TypeOf(lockExpr.X)
		if recvT == nil {
			return "", false
		}
		if p, ok := recvT.(*types.Pointer); ok {
			recvT = p.Elem()
		}
		named, ok := recvT.(*types.Named)
		if !ok {
			return "", false
		}
		return shortPkg(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + lockExpr.Sel.Name, true
	case *ast.Ident:
		// strIntern.RLock(): a package-level variable embedding a mutex.
		v, ok := info.Uses[lockExpr].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "", false
		}
		return shortPkg(v.Pkg()) + "." + v.Name(), true
	}
	return "", false
}

// shortPkg renders a package for lock keys and traces: the import path
// with the module-internal prefix trimmed, so diagnostics read
// core.Node.mu rather than asap/internal/core.Node.mu.
func shortPkg(pkg *types.Package) string {
	if pkg == nil {
		return "_"
	}
	p := pkg.Path()
	if i := strings.LastIndex(p, "/internal/"); i >= 0 {
		return p[i+len("/internal/"):]
	}
	return p
}

func (st *state) addEdge(from, to string, pos token.Position) {
	if from == to {
		return // instance-ordered same-lock nesting is out of scope
	}
	k := [2]string{from, to}
	if old, ok := st.edges[k]; !ok || posLess(pos, old) {
		st.edges[k] = pos
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// --- pass 2: transitive closure ---

// computeTransitive propagates acquire sets along the call graph to a
// fixpoint: trans[f] = acquires[f] ∪ trans[callees of f].
func (st *state) computeTransitive() {
	for fn, fi := range st.funcs {
		set := make(map[string]bool, len(fi.acquires))
		for k := range fi.acquires {
			set[k] = true
		}
		st.trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range st.funcs {
			set := st.trans[fn]
			for callee := range fi.callees {
				for k := range st.trans[callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
}

// --- cycle detection and reporting ---

func (st *state) reportCycles() {
	// Deterministic adjacency: sorted node list, sorted neighbor lists.
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range st.edges {
		nodes[k[0]], nodes[k[1]] = true, true
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sort.Strings(adj[n])
	}

	sccs := tarjan(names, adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		cycle := traceCycle(scc, adj)
		if cycle == nil {
			continue
		}
		first := st.edges[[2]string{cycle[0], cycle[1%len(cycle)]}]
		var sites strings.Builder
		for i, n := range cycle {
			next := cycle[(i+1)%len(cycle)]
			pos := st.edges[[2]string{n, next}]
			if i > 0 {
				sites.WriteString(", ")
			}
			fmt.Fprintf(&sites, "%s->%s at %s:%d", n, next, trimPath(pos.Filename), pos.Line)
		}
		st.prog.Report(analysis.Diagnostic{
			Pos: st.posAt(first),
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s -> %s (%s); acquire these locks in one global order or release before crossing (DESIGN.md §16)",
				strings.Join(cycle, " -> "), cycle[0], sites.String()),
		})
	}
}

// posAt converts a token.Position back to a token.Pos within the
// program's FileSet so the driver can position the diagnostic.
func (st *state) posAt(pos token.Position) token.Pos {
	var found token.Pos = token.NoPos
	st.prog.Fset.Iterate(func(f *token.File) bool {
		if f.Name() == pos.Filename {
			if pos.Line <= f.LineCount() {
				found = f.LineStart(pos.Line) + token.Pos(pos.Column-1)
			}
			return false
		}
		return true
	})
	return found
}

func trimPath(p string) string {
	if i := strings.LastIndex(p, "/internal/"); i >= 0 {
		return p[i+len("/internal/"):]
	}
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// tarjan returns the strongly connected components of the graph in a
// deterministic order (nodes and neighbors pre-sorted by the caller).
func tarjan(nodes []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// traceCycle builds a representative cycle through the SCC starting at
// its smallest lock, greedily preferring the smallest next neighbor.
func traceCycle(scc []string, adj map[string][]string) []string {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0] // scc is sorted
	var path []string
	visited := make(map[string]bool)
	var dfs func(v string) bool
	dfs = func(v string) bool {
		path = append(path, v)
		visited[v] = true
		for _, w := range adj[v] {
			if w == start && len(path) > 1 {
				return true
			}
			if in[w] && !visited[w] {
				if dfs(w) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
