// Package schedgo enforces the concurrency model (DESIGN.md §9): no bare
// `go` statements in non-test internal/ code. Goroutines must be spawned
// through Scheduler.Go or Scheduler.Join so the virtual clock can
// account for every task: a goroutine the scheduler cannot see runs at
// uncontrolled wall time, and under the simulated clock it races the
// deterministic event loop.
//
// Exemption: the internal/sim package itself (the schedulers are built
// out of real goroutines). Test files are never loaded.
package schedgo

import (
	"go/ast"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags bare go statements outside the scheduler package.
var Analyzer = &analysis.Analyzer{
	Name: "schedgo",
	Doc: "forbid bare `go` statements in non-test internal/ code; spawn through Scheduler.Go/Join " +
		"so the virtual clock accounts for every goroutine (DESIGN.md §9)",
	Run: analysis.PerPackage(run),
}

func run(pass *analysis.Pass) {
	if lintutil.IsSchedulerPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare go statement in internal/ code: spawn through Scheduler.Go or Scheduler.Join so the virtual clock can account for the goroutine (DESIGN.md §9)")
			}
			return true
		})
	}
}
