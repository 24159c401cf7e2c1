// Package analysis is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis, carrying just the surface the asaplint
// analyzers need: an Analyzer with a Run function, a Program holding
// every type-checked package of one asaplint invocation, and
// position-tagged Diagnostics.
//
// The build environment for this repo is offline (no module proxy), so
// x/tools cannot be vendored. Unlike upstream, every analyzer sees the
// whole program: the conformance checks (protocol-enum drift, lock-order
// cycles, retry error classification) span package boundaries, and a
// check of one package at a time is the PerPackage special case.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"asap/internal/lint/loader"
)

// Analyzer describes one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of the rule the analyzer
	// enforces, shown by `asaplint -help`.
	Doc string
	// Run applies the analyzer to the whole program and reports
	// findings through prog.Report.
	Run func(*Program) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Program holds every package of one asaplint invocation plus the
// reporting callback. Packages keep the driver's deterministic order
// (by import path), so analyzers that iterate them produce stable
// diagnostics.
type Program struct {
	Fset     *token.FileSet
	Packages []*Pass
	Report   func(Diagnostic)
}

// Pass is one type-checked package of a Program. It embeds its Program,
// so a check of one package reports through pass.Reportf.
type Pass struct {
	*Program
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// NewProgram wraps loaded packages, in the given order, as one Program.
// The caller sets Report before running an analyzer.
func NewProgram(pkgs []*loader.Package) *Program {
	prog := &Program{}
	for _, p := range pkgs {
		prog.Fset = p.Fset
		prog.Packages = append(prog.Packages, &Pass{Program: prog, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info})
	}
	return prog
}

// PerPackage makes a Run function from a check of one package: it
// applies check to each package of the program in order.
func PerPackage(check func(*Pass)) func(*Program) error {
	return func(prog *Program) error {
		for _, pass := range prog.Packages {
			check(pass)
		}
		return nil
	}
}

// Reportf reports a formatted diagnostic at pos.
func (p *Program) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
