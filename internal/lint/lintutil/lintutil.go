// Package lintutil holds the small AST/type helpers shared by the
// asaplint analyzers.
package lintutil

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// IsWallAdapter reports whether filename is the single file allowed to
// touch the time package: internal/sim/wall.go, the real-time Scheduler
// adapter. Matched by path suffix so analysistest fixtures can exercise
// the exemption with testdata/src/asap/internal/sim/wall.go.
func IsWallAdapter(filename string) bool {
	return strings.HasSuffix(filepath.ToSlash(filename), "internal/sim/wall.go")
}

// IsSchedulerPackage reports whether the package implements the
// scheduler itself (internal/sim), which necessarily spawns real
// goroutines and so is exempt from the schedgo rule.
func IsSchedulerPackage(pkgPath string) bool {
	return pkgPath == "sim" || strings.HasSuffix(pkgPath, "internal/sim")
}

// UsedPkg resolves expr to the package it names, or nil: for an
// identifier bound to an import (aliased or not) it returns the imported
// package. Resolving through the type info — rather than matching the
// identifier text — is what lets the analyzers catch aliased imports the
// old grep gate missed, and not trip over local variables that shadow a
// package name.
func UsedPkg(info *types.Info, expr ast.Expr) *types.Package {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// IsPkgCall reports whether call is pkgPath.funcName(...), resolving the
// package through the type info.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	p := UsedPkg(info, sel.X)
	return p != nil && p.Path() == pkgPath
}

// Callee returns the called *types.Func for a call expression, or nil
// (calls through function-typed variables have no *types.Func callee).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
