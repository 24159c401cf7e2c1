// Package maporder flags map iteration that leaks Go's randomized
// iteration order into experiment output: a `range` over a map whose
// body appends to an outer slice with no sort afterwards, or writes
// output directly. Either pattern makes reports and figures differ
// between runs with the same seed — exactly the regression the eval
// harness's byte-identical-output guarantee exists to prevent.
//
// The deterministic idiom stays legal: collect the keys, sort them, then
// iterate the sorted slice —
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// is not flagged because a sort/slices call on the collected slice
// follows the loop in the same block.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags order-dependent map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body appends to a slice or writes output without a subsequent sort; " +
		"map iteration order is randomized and must not reach reports or figures",
	Run: analysis.PerPackage(run),
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmts := blockStmts(n)
			if stmts == nil {
				return true
			}
			for i, s := range stmts {
				rs, ok := s.(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass, rs) {
					continue
				}
				checkRange(pass, rs, stmts[i+1:])
			}
			return true
		})
	}
}

// blockStmts returns the statement list of any block-like node, so range
// statements nested in if/for/switch bodies are found along with their
// following statements.
func blockStmts(n ast.Node) []ast.Stmt {
	switch b := n.(type) {
	case *ast.BlockStmt:
		return b.List
	case *ast.CaseClause:
		return b.Body
	case *ast.CommClause:
		return b.Body
	}
	return nil
}

func rangesOverMap(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkRange inspects the body of one map-range statement and reports
// order-dependent effects.
func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	var appended []types.Object
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(node.Lhs) {
					continue
				}
				id, ok := node.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				// Only appends to slices declared outside the loop can
				// leak iteration order out of it.
				if obj != nil && !within(rs, obj.Pos()) {
					appended = append(appended, obj)
				}
			}
		case *ast.CallExpr:
			if isOutputCall(pass, node) {
				pass.Reportf(node.Pos(),
					"output written while ranging over a map: iteration order is randomized; collect and sort keys first")
			}
		}
		return true
	})
	for _, obj := range appended {
		if !sortedAfter(pass, obj, following) {
			pass.Reportf(rs.Pos(),
				"appending to %q while ranging over a map without sorting it afterwards: iteration order is randomized; sort %[1]q (sort.* or slices.Sort*) before use",
				obj.Name())
		}
	}
}

func within(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isOutputCall reports calls that emit output: fmt printers that write
// (Print*/Fprint*) and Write* methods on builders, buffers and writers.
func isOutputCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if p := lintutil.UsedPkg(pass.TypesInfo, sel.X); p != nil {
		return p.Path() == "fmt" &&
			(hasPrefix(name, "Print") || hasPrefix(name, "Fprint"))
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return lintutil.Callee(pass.TypesInfo, call) != nil
	}
	return false
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// sortedAfter reports whether any statement after the range sorts obj
// via the sort or slices packages.
func sortedAfter(pass *analysis.Pass, obj types.Object, following []ast.Stmt) bool {
	for _, s := range following {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
						found = true
						return false
					}
					return true
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	p := lintutil.UsedPkg(pass.TypesInfo, sel.X)
	return p != nil && (p.Path() == "sort" || p.Path() == "slices")
}
