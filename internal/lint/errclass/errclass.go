// Package errclass enforces the retry-classification invariant
// (DESIGN.md §16): RetryPolicy.Do retries only transport.IsTransient
// errors, so every error an op returns into it must trace to a source
// the classifier understands. The precedent is ErrFrameTooLarge — an
// error that looked retryable, was not classified, and silently burned
// the whole attempt budget on a failure no retry could fix.
//
// For each call to RetryPolicy.Do, the analyzer walks the op's
// top-level return statements and demands that every returned error be
// one of:
//
//   - nil, or a fresh construction (errors.New, fmt.Errorf without %w):
//     deliberately non-transient, the classifier correctly declines to
//     retry it;
//   - fmt.Errorf with %w whose wrapped error itself classifies;
//   - the result of a call into the transport layer (package net,
//     context, or a */transport* package): the layer that owns
//     IsTransient and returns errors it recognizes;
//   - the result of a call to a function whose doc comment carries a
//     //lint:errclass <justification> marker — the author's statement
//     that the function's errors are classification-safe (all
//     transient, all terminal, or IsTransient-recognized);
//   - a package-level error variable from such a package
//     (transport.ErrUnreachable, context.DeadlineExceeded).
//
// Anything else — an opaque helper call, an untraceable variable — is a
// finding: the error may or may not be transient, and Do will guess. A
// bare //lint:errclass marker with no justification is itself a
// finding, mirroring the //lint:allow rule.
//
// The analyzer is whole-program because the marker lives on the callee,
// which is routinely in another package than the Do call site.
package errclass

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags errors retried by RetryPolicy.Do that trace to no
// transient/non-transient classification.
var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc: "every error returned into RetryPolicy.Do must trace to a classified source — the " +
		"transport layer, a fresh construction, or a //lint:errclass-marked function — so the " +
		"transient/terminal decision is deliberate, not a guess (DESIGN.md §16)",
	Run: run,
}

const marker = "//lint:errclass"

// declInfo locates a function declaration for cross-package doc-comment
// lookup.
type declInfo struct {
	decl *ast.FuncDecl
	pkg  *analysis.Pass
}

type state struct {
	prog  *analysis.Program
	decls map[*types.Func]*declInfo
}

func run(prog *analysis.Program) error {
	st := &state{prog: prog, decls: make(map[*types.Func]*declInfo)}
	// Pass 1: index every function declaration, and vet the markers
	// themselves — a justification is mandatory wherever the marker
	// appears.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
					st.decls[fn] = &declInfo{decl: fd, pkg: pkg}
				}
				if fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !strings.HasPrefix(c.Text, marker) {
						continue
					}
					if strings.TrimSpace(strings.TrimPrefix(c.Text, marker)) == "" {
						prog.Reportf(fd.Pos(),
							"//lint:errclass marker on %s needs a justification: say why this function's errors are classification-safe", fd.Name.Name)
					}
				}
			}
		}
	}
	// Pass 2: find the Do calls and audit their ops.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if st.isRetryDo(pkg, call) && len(call.Args) > 0 {
					st.checkOp(pkg, call.Args[len(call.Args)-1])
				}
				return true
			})
		}
	}
	return nil
}

// isRetryDo reports whether call is a Do method call on a receiver of a
// named type RetryPolicy (any package — fixtures declare their own).
func (st *state) isRetryDo(pkg *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.Callee(pkg.TypesInfo, call)
	if fn == nil || fn.Name() != "Do" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "RetryPolicy"
}

// checkOp audits the op argument: a function literal or a resolvable
// declaration whose top-level returns all classify.
func (st *state) checkOp(pkg *analysis.Pass, op ast.Expr) {
	switch fun := ast.Unparen(op).(type) {
	case *ast.FuncLit:
		st.checkBody(pkg, fun.Body)
		return
	default:
		if fn, ok := calleeOf(pkg.TypesInfo, op); ok {
			if di := st.decls[fn]; di != nil && di.decl.Body != nil {
				st.checkBody(di.pkg, di.decl.Body)
				return
			}
		}
	}
	st.prog.Reportf(op.Pos(),
		"op passed to RetryPolicy.Do is not a traceable function: its errors cannot be audited for transient/terminal classification (DESIGN.md §16)")
}

// calleeOf resolves an expression used as a function value (ident or
// method value) to its *types.Func.
func calleeOf(info *types.Info, e ast.Expr) (*types.Func, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return fn, ok
}

// checkBody classifies every error expression returned by the body's
// top-level return statements (nested function literals are separate
// tasks, not op returns).
func (st *state) checkBody(pkg *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			t := pkg.TypesInfo.TypeOf(res)
			if t == nil || t.String() != "error" {
				continue
			}
			if reason := st.classify(pkg, body, res, 0); reason != "" {
				st.prog.Reportf(res.Pos(),
					"error returned into RetryPolicy.Do is unclassified: %s; RetryPolicy retries only transport.IsTransient errors — route it through the transport layer, construct it fresh, or mark its source //lint:errclass with a justification (DESIGN.md §16)", reason)
			}
		}
		return true
	})
}

// classify returns "" when expr traces to a classified source, or the
// reason it does not. body is the scope searched for assignments when
// tracing identifiers; depth bounds wrap-chasing.
func (st *state) classify(pkg *analysis.Pass, body *ast.BlockStmt, expr ast.Expr, depth int) string {
	if depth > 4 {
		return "the wrap chain is too deep to trace"
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return ""
		}
		if v, ok := pkg.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// A package-level error var: classified if its package is.
			if classifiedPkg(v.Pkg().Path()) {
				return ""
			}
			return "package-level error " + e.Name + " is outside the transport layer"
		}
		return st.classifyIdent(pkg, body, e, depth)
	case *ast.SelectorExpr:
		// transport.ErrUnreachable, context.DeadlineExceeded, f.err ...
		if obj, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() && classifiedPkg(obj.Pkg().Path()) {
				return ""
			}
		}
		return "selector " + e.Sel.Name + " traces to no classified source"
	case *ast.CallExpr:
		return st.classifyCall(pkg, body, e, depth)
	default:
		return "the expression form cannot be traced"
	}
}

// classifyIdent traces a local error variable through its assignments
// in the op body: every assignment's source must classify.
func (st *state) classifyIdent(pkg *analysis.Pass, body *ast.BlockStmt, id *ast.Ident, depth int) string {
	obj := pkg.TypesInfo.Uses[id]
	if obj == nil {
		return id.Name + " does not resolve"
	}
	assigned := false
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || (pkg.TypesInfo.Defs[lid] != obj && pkg.TypesInfo.Uses[lid] != obj) {
				continue
			}
			assigned = true
			// a, err := f(): one call produces both; err = x: direct.
			var src ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				src = as.Rhs[i]
			} else {
				src = as.Rhs[0]
			}
			if r := st.classify(pkg, body, src, depth+1); r != "" {
				reason = r
			}
		}
		return true
	})
	if !assigned {
		return id.Name + " is never assigned in the op body (captured or parameter)"
	}
	return reason
}

// classifyCall classifies the error produced by a call expression.
func (st *state) classifyCall(pkg *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr, depth int) string {
	info := pkg.TypesInfo
	// errors.New and fmt.Errorf construct deliberately non-transient
	// errors; a %w verb re-raises the wrapped error's classification.
	if lintutil.IsPkgCall(info, call, "errors", "New") {
		return ""
	}
	if lintutil.IsPkgCall(info, call, "fmt", "Errorf") && len(call.Args) > 0 {
		format := ""
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok {
			format = lit.Value
		}
		if !strings.Contains(format, "%w") {
			return ""
		}
		for _, arg := range call.Args[1:] {
			t := info.TypeOf(arg)
			if t == nil || t.String() != "error" {
				continue
			}
			if r := st.classify(pkg, body, arg, depth+1); r != "" {
				return r
			}
		}
		return ""
	}
	fn := lintutil.Callee(info, call)
	if fn == nil {
		return "the call's target cannot be resolved"
	}
	if fn.Pkg() != nil && classifiedPkg(fn.Pkg().Path()) {
		return ""
	}
	if di := st.decls[fn]; di != nil && hasMarker(di.decl) {
		return ""
	}
	return fn.Name() + " is neither a transport-layer call nor marked //lint:errclass"
}

// hasMarker reports whether the declaration's doc comment carries the
// //lint:errclass directive (justification validity is vetted in pass 1).
func hasMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}

// classifiedPkg reports whether pkgPath is part of the layer whose
// errors transport.IsTransient is written against.
func classifiedPkg(pkgPath string) bool {
	if pkgPath == "net" || pkgPath == "context" {
		return true
	}
	if pkgPath == "transport" || strings.HasSuffix(pkgPath, "/transport") {
		return true
	}
	return strings.Contains(pkgPath, "/transport/")
}
