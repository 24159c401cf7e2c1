// Package schedtime enforces the time model (DESIGN.md §10): production
// code under internal/ takes time only from an injected sim.Scheduler,
// never from the time package directly. It replaces — and strictly
// supersedes — the old grep-based `make timecheck` gate: resolving the
// callee through the type checker catches aliased imports
// (`import t "time"; t.Sleep(d)`) and the query/observation functions
// time.Now / time.Since that the grep never covered.
//
// Exemption: internal/sim/wall.go (it IS the wall-clock adapter). Test
// files are never loaded: wall-mode regression tests sleep for real.
package schedtime

import (
	"go/ast"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags direct time-package scheduling and clock reads in
// internal/ code.
var Analyzer = &analysis.Analyzer{
	Name: "schedtime",
	Doc: "forbid time.Sleep/After/AfterFunc/NewTimer/NewTicker/Tick/Now/Since outside internal/sim/wall.go; " +
		"take time from an injected sim.Scheduler so the same code runs on the virtual clock (DESIGN.md §10)",
	Run: analysis.PerPackage(run),
}

// banned lists the time-package functions that schedule work or read the
// clock. Pure conversions and constructors (time.Duration, time.Unix,
// time.Date) stay legal: they do not couple the caller to wall time.
var banned = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Now":       true,
	"Since":     true,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if lintutil.IsWallAdapter(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if p := lintutil.UsedPkg(pass.TypesInfo, sel.X); p != nil && p.Path() == "time" {
				pass.Reportf(call.Pos(),
					"time.%s in internal/ code: take time from an injected sim.Scheduler (DESIGN.md §10); only internal/sim/wall.go may use the time package",
					sel.Sel.Name)
			}
			return true
		})
	}
}
