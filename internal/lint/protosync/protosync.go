// Package protosync machine-checks the wire protocol against its
// implementations (DESIGN.md §16): the MsgType enum in the transport
// package is the single source of truth, and everything keyed off it —
// the String() switch, the request/reply pairing, the handler dispatch
// switches across core/session/relay code, and the binary codec's field
// sections — must stay in lockstep. Skype's reverse-engineered protocol
// history (Baset & Schulzrinne) is the cautionary tale: undocumented
// wire/handler drift calcifies until nobody can refactor the dispatch
// without archaeology.
//
// protosync is a whole-program analyzer. In every analyzed package that
// declares a `MsgType` named type it checks, against all packages of the
// run:
//
//  1. String() exists on MsgType and mentions every declared constant,
//     so logs and diagnostics never print a bare integer;
//  2. the enum ends in a `msgTypeLimit` sentinel that the rest of the
//     package consults (the decoder's unknown-type rejection);
//  3. every request constant has its reply pairing (MsgXReply, MsgXAck,
//     or the MsgPing→MsgPong special case) and every reply names a
//     declared request;
//  4. every request constant is dispatched somewhere in the program (a
//     switch case or ==/!= comparison) and every constant is constructed
//     somewhere (assigned or used in a composite literal) — a type that
//     is declared but never handled, or never sent, is drift;
//  5. the `Message` struct and the codec's `fld*` constants agree field
//     for field, and every field id is touched by both AppendMessage and
//     DecodeMessage.
//
// The loader never reads *_test.go files, so a type only a test
// exercises counts as neither handled nor constructed: it is dead
// protocol.
package protosync

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"asap/internal/lint/analysis"
)

// Analyzer cross-checks the MsgType enum against its implementations.
var Analyzer = &analysis.Analyzer{
	Name: "protosync",
	Doc: "keep the MsgType enum, String(), request/reply pairing, handler dispatch " +
		"and codec field sections in lockstep (DESIGN.md §16)",
	Run: run,
}

// msgConst is one declared MsgType constant and what the program does
// with it.
type msgConst struct {
	obj         types.Object
	name        string
	pos         token.Pos
	inString    bool // mentioned in the String() method
	handled     bool // appears in a case clause or ==/!= comparison
	constructed bool // appears anywhere else (literal, assignment, send)
}

func run(prog *analysis.Program) error {
	for _, pkg := range prog.Packages {
		enumType := pkg.Pkg.Scope().Lookup("MsgType")
		if _, ok := enumType.(*types.TypeName); !ok {
			continue
		}
		checkEnum(prog, pkg, enumType.(*types.TypeName))
		checkCodecFields(prog, pkg)
	}
	return nil
}

// checkEnum runs the enum-side checks (String coverage, sentinel,
// pairing, whole-program usage) for one MsgType declaration.
func checkEnum(prog *analysis.Program, owner *analysis.Pass, tn *types.TypeName) {
	scope := owner.Pkg.Scope()
	var consts []*msgConst
	var sentinel types.Object
	byObj := make(map[types.Object]*msgConst)
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		c, ok := obj.(*types.Const)
		if !ok || c.Type() != tn.Type() {
			continue
		}
		if name == "msgTypeLimit" {
			sentinel = obj
			continue
		}
		mc := &msgConst{obj: obj, name: name, pos: obj.Pos()}
		consts = append(consts, mc)
		byObj[obj] = mc
	}
	if len(consts) == 0 {
		return
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].pos < consts[j].pos })

	stringDecl := methodDecl(owner, tn, "String")
	if stringDecl == nil {
		prog.Reportf(tn.Pos(), "MsgType has no String() method: every message type must print its name, not a bare integer (DESIGN.md §16)")
	}
	if sentinel == nil {
		prog.Reportf(tn.Pos(), "MsgType enum has no msgTypeLimit sentinel: the decoder cannot reject unknown type bytes (DESIGN.md §16)")
	} else {
		// The sentinel must be the last value of the enum...
		for _, mc := range consts {
			if mc.pos > sentinel.Pos() {
				prog.Reportf(mc.pos, "%s is declared after the msgTypeLimit sentinel: append message types before the sentinel so the decoder's range check covers them", mc.name)
			}
		}
	}

	// Scan every package of the program for uses of the constants (and
	// of the sentinel, which must be consulted outside its declaration).
	sentinelUsed := false
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			inString := func(n ast.Node) bool {
				return stringDecl != nil && pkg == owner &&
					n.Pos() >= stringDecl.Pos() && n.End() <= stringDecl.End()
			}
			scanUsage(pkg.TypesInfo, f, byObj, sentinel, &sentinelUsed, inString)
		}
	}

	names := make(map[string]bool, len(consts))
	for _, mc := range consts {
		names[mc.name] = true
	}
	for _, mc := range consts {
		if stringDecl != nil && !mc.inString {
			prog.Reportf(mc.pos, "%s is missing from MsgType.String(): add its case so the type prints its name", mc.name)
		}
		if reply, req := pairing(mc.name); reply != "" {
			found := false
			for _, alt := range strings.Split(reply, "|") {
				if names[alt] {
					found = true
					break
				}
			}
			if !found {
				prog.Reportf(mc.pos, "request %s has no reply type (%s): every request/response exchange pairs on the wire", mc.name, strings.ReplaceAll(reply, "|", " or "))
			}
		} else if req != "" && !names[req] {
			prog.Reportf(mc.pos, "reply %s names no declared request %s: rename the pair or declare the request", mc.name, req)
		}
		if isRequest(mc.name) && !mc.handled {
			prog.Reportf(mc.pos, "%s is declared but no non-test handler dispatches it (no switch case or comparison anywhere in the program): wire a handler or retire the type", mc.name)
		}
		if !mc.constructed {
			prog.Reportf(mc.pos, "%s is declared but never constructed outside tests: no code sends it, so the type is dead protocol", mc.name)
		}
	}
	if sentinel != nil && !sentinelUsed {
		prog.Reportf(sentinel.Pos(), "msgTypeLimit is never consulted outside its declaration: the decoder must reject type bytes at or past the sentinel")
	}
}

// pairing classifies a constant name. For a request it returns
// (expectedReplyAlternatives, ""); for a reply it returns ("",
// expectedRequestName); MsgError — the error envelope — is neither.
func pairing(name string) (reply, request string) {
	switch {
	case name == "MsgError":
		return "", ""
	case name == "MsgPong":
		return "", "MsgPing"
	case name == "MsgPing":
		return "MsgPong", ""
	case strings.HasSuffix(name, "Reply"):
		return "", strings.TrimSuffix(name, "Reply")
	case strings.HasSuffix(name, "Ack"):
		return "", strings.TrimSuffix(name, "Ack")
	default:
		return name + "Reply|" + name + "Ack", ""
	}
}

// isRequest reports whether the constant names a message some handler
// must dispatch. Replies flow back through Call's return value — the
// caller reads fields, no switch required — but MsgError is dispatched
// (compared) by the transport itself.
func isRequest(name string) bool {
	if name == "MsgError" {
		return true
	}
	reply, _ := pairing(name)
	return reply != ""
}

// scanUsage classifies every use of the enum constants in one file:
// uses under a case clause or an ==/!= comparison count as handling,
// anything else as construction. Uses inside the String() method are
// the name table and count as neither.
func scanUsage(info *types.Info, f *ast.File, byObj map[types.Object]*msgConst, sentinel types.Object, sentinelUsed *bool, inString func(ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if obj == sentinel {
			*sentinelUsed = true
			return true
		}
		mc, ok := byObj[obj]
		if !ok {
			return true
		}
		if inString(id) {
			mc.inString = true
			return true
		}
		if handledContext(stack, id) {
			mc.handled = true
		} else {
			mc.constructed = true
		}
		return true
	})
}

// handledContext reports whether the ident (possibly wrapped in a
// selector like transport.MsgPing) sits in a case-clause list or an
// equality comparison.
func handledContext(stack []ast.Node, id *ast.Ident) bool {
	// Walk up through the qualified-identifier selector, if any.
	top := ast.Node(id)
	i := len(stack) - 2
	if i >= 0 {
		if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
			top = sel
			i--
		}
	}
	if i < 0 {
		return false
	}
	switch parent := stack[i].(type) {
	case *ast.CaseClause:
		for _, e := range parent.List {
			if e == top {
				return true
			}
		}
	case *ast.BinaryExpr:
		if parent.Op == token.EQL || parent.Op == token.NEQ {
			return true
		}
	}
	return false
}

// methodDecl finds the FuncDecl of a value-or-pointer method on the
// named type in the owning package's files.
func methodDecl(pkg *analysis.Pass, tn *types.TypeName, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			t := pkg.TypesInfo.TypeOf(fd.Recv.List[0].Type)
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj() == tn {
				return fd
			}
		}
	}
	return nil
}

// --- codec field cross-check ---

// checkCodecFields verifies the Message struct and the fld* field-id
// constants agree, and that AppendMessage and DecodeMessage both touch
// every field id. Skipped when the package declares no Message struct
// or no fld constants (not a codec package).
func checkCodecFields(prog *analysis.Program, pkg *analysis.Pass) {
	scope := pkg.Pkg.Scope()
	msgObj, ok := scope.Lookup("Message").(*types.TypeName)
	if !ok {
		return
	}
	st, ok := msgObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	flds := make(map[string]types.Object) // suffix (field name) -> const
	for _, name := range scope.Names() {
		obj, isConst := scope.Lookup(name).(*types.Const)
		if !isConst {
			continue
		}
		if suffix, found := strings.CutPrefix(name, "fld"); found && suffix != "Limit" {
			flds[suffix] = obj
		}
	}
	if len(flds) == 0 {
		return
	}

	fields := make(map[string]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || f.Name() == "Type" {
			continue
		}
		fields[f.Name()] = true
		if _, ok := flds[f.Name()]; !ok {
			prog.Reportf(f.Pos(), "Message field %s has no fld%s codec id: the binary codec cannot carry it (DESIGN.md §15)", f.Name(), f.Name())
		}
	}

	enc := funcDecl(pkg, "AppendMessage")
	dec := funcDecl(pkg, "DecodeMessage")
	encUses := declUses(pkg, enc)
	decUses := declUses(pkg, dec)
	names := make([]string, 0, len(flds))
	for n := range flds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		obj := flds[n]
		if !fields[n] {
			prog.Reportf(obj.Pos(), "codec id fld%s matches no Message field: remove it or restore the field (field ids are append-only)", n)
			continue
		}
		if enc != nil && !encUses[obj] {
			prog.Reportf(obj.Pos(), "fld%s is never written by AppendMessage: the encoder silently drops the %s field", n, n)
		}
		if dec != nil && !decUses[obj] {
			prog.Reportf(obj.Pos(), "fld%s is never read by DecodeMessage: the decoder rejects frames carrying the %s field", n, n)
		}
	}
	if enc == nil {
		prog.Reportf(msgObj.Pos(), "package declares fld* codec ids but no AppendMessage encoder")
	}
	if dec == nil {
		prog.Reportf(msgObj.Pos(), "package declares fld* codec ids but no DecodeMessage decoder")
	}
}

// funcDecl finds a top-level function by name in the package's files.
func funcDecl(pkg *analysis.Pass, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// declUses collects which objects a declaration's body references.
func declUses(pkg *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	uses := make(map[types.Object]bool)
	if fd == nil || fd.Body == nil {
		return uses
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.TypesInfo.Uses[id]; obj != nil {
				uses[obj] = true
			}
		}
		return true
	})
	return uses
}
