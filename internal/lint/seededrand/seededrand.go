// Package seededrand enforces seed-reproducible randomness: internal/
// code must not draw from the process-global math/rand generator or seed
// a generator from the wall clock. Every RNG derives from the experiment
// seed — sim.SubSeed for per-component streams, or an explicitly
// injected *rand.Rand — so a run is a pure function of its seed and two
// runs with the same seed produce byte-identical relay decisions and
// figures (the property the paper's §7 evaluation depends on).
//
// rand.New(rand.NewSource(seed)) with a deterministic seed stays legal;
// rand.NewSource(time.Now().UnixNano()) and bare rand.Intn(...) do not.
package seededrand

import (
	"go/ast"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags global math/rand use and wall-clock-seeded sources.
var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "forbid top-level math/rand functions and rand.NewSource(time.Now(...)) in internal/; " +
		"derive RNGs from sim.SubSeed or an injected seeded source",
	Run: analysis.PerPackage(run),
}

// globalFns are the math/rand package-level functions backed by the
// shared, non-reproducible global generator.
var globalFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
	"N": true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			p := lintutil.UsedPkg(pass.TypesInfo, sel.X)
			if p == nil || !isRandPkg(p.Path()) {
				return true
			}
			switch {
			case globalFns[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"global math/rand.%s breaks seed reproducibility: derive an RNG from sim.SubSeed or an injected *rand.Rand",
					sel.Sel.Name)
			case sel.Sel.Name == "NewSource" && seededFromClock(pass, call):
				pass.Reportf(call.Pos(),
					"rand.NewSource seeded from the wall clock breaks seed reproducibility: seed from sim.SubSeed or experiment config")
			}
			return true
		})
	}
}

// seededFromClock reports whether any argument of call contains a
// time.Now(...) call (e.g. rand.NewSource(time.Now().UnixNano())).
func seededFromClock(pass *analysis.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if ok && lintutil.IsPkgCall(pass.TypesInfo, inner, "time", "Now") {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
