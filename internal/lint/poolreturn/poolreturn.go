// Package poolreturn protects the zero-alloc wire path's pooling
// discipline (DESIGN.md §15): every value taken from the transport
// pools — AcquireMessage / acquireBuf — must be given back
// (ReleaseMessage / releaseBuf) or handed off on every path out of the
// function that acquired it. A leaked envelope or buffer silently
// re-allocates under load, which is exactly the regression the pools
// exist to prevent, and the error paths (early returns after a failed
// decode or an oversize frame) are where leaks hide.
//
// The analysis is the shared per-function may-held walk
// (lintutil.Walk): an acquire bound by `:=`, `=` or `var` adds the
// variable to the held set; a release call removes it. Ownership also
// transfers — ending the obligation — when the value is returned,
// stored into a field, slice element or dereference, sent on a channel,
// passed to a go statement, or placed in a composite literal. A path
// that returns (or falls off the end of the function) with a pooled
// value still held is a finding. Branches run on their own copies of
// the held set, so a release on a terminating error path does not count
// for the fall-through path, and vice versa. Function literals are
// analyzed as their own scopes. *_test.go files are exempt.
package poolreturn

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags pooled transport values that are not released on every
// return path.
var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc: "require every transport pool acquire (AcquireMessage/acquireBuf) to be " +
		"released or handed off on every return path (DESIGN.md §15)",
	Run: run,
}

// acquirers and releasers name the pool pairs. Both live in the
// transport package; the unexported pair is only reachable from inside
// it. Any release ends the obligation of the variable it is passed.
var acquirers = map[string]bool{
	"AcquireMessage": true,
	"acquireBuf":     true,
}

var releasers = map[string]bool{
	"ReleaseMessage": true,
	"releaseBuf":     true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Filename(f.Pos())) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkBody analyzes one function (or function literal) body with the
// shared may-held walk, then recurses into the literals it contains —
// each is its own scope with its own obligations.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	w := &lintutil.Walk{
		Eval: func(n ast.Node, held lintutil.Held) {
			switch x := n.(type) {
			case *ast.CallExpr:
				if name, ok := releaseCall(pass, x); ok {
					delete(held, name)
				}
			case *ast.CompositeLit:
				// Embedding a pooled value in a literal hands it to whatever
				// owns the literal.
				for _, el := range x.Elts {
					transferIdents(el, held)
				}
			}
		},
		Bind: func(lhs, rhs ast.Expr, held lintutil.Held) {
			// m := transport.AcquireMessage() (or var m = ...) starts an
			// obligation on m.
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && acquireCall(pass, call) {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					held[id.Name] = true
				}
				return
			}
			// x.field = m (or s[i] = m, *p = m) stores the value past this
			// frame: ownership transfers.
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && held[id.Name] {
				if _, plain := lhs.(*ast.Ident); !plain {
					delete(held, id.Name)
				}
			}
		},
		Defer: func(call *ast.CallExpr, held lintutil.Held) {
			// A deferred release covers every path from here on.
			if name, ok := releaseCall(pass, call); ok {
				delete(held, name)
			}
		},
		HandOff: transferIdents,
		Exit: func(at ast.Node, held lintutil.Held) {
			if len(held) == 0 {
				return
			}
			pos, where := at.Pos(), "this return"
			if b, ok := at.(*ast.BlockStmt); ok {
				pos, where = b.Rbrace, "the end of the function"
			}
			pass.Reportf(pos,
				"pooled value %s reaches %s without being released or handed off: "+
					"release it on every path (DESIGN.md §15)",
				strings.Join(held.Sorted(), ", "), where)
		},
	}
	w.Func(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, lit.Body)
			return false
		}
		return true
	})
}

// transferIdents drops the obligation for every held identifier
// appearing in e: the value is being handed off.
func transferIdents(e ast.Expr, held lintutil.Held) {
	lintutil.Inspect(e, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			delete(held, id.Name)
		}
	})
}

// acquireCall reports whether call is a transport pool acquire.
func acquireCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.Callee(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && isTransportPkg(fn.Pkg()) && acquirers[fn.Name()]
}

// releaseCall reports whether call is a transport pool release, and the
// held-set key of its argument.
func releaseCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !isTransportPkg(fn.Pkg()) || !releasers[fn.Name()] {
		return "", false
	}
	if len(call.Args) != 1 {
		return "", false
	}
	return types.ExprString(ast.Unparen(call.Args[0])), true
}

func isTransportPkg(pkg *types.Package) bool {
	p := pkg.Path()
	return p == "transport" || strings.HasSuffix(p, "/transport")
}
