package asap_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"asap/internal/lint/loader"
)

// stdInterfaceMethods are method names that standard-library code calls
// through an interface (container/heap, sort, fmt, errors, io, net), so
// a method of that name has a caller even when no file in the module
// names it.
var stdInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true,
	"WriteTo": true, "Seek": true, "Network": true, "Accept": true,
	"Addr": true, "LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Lock": true, "Unlock": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
}

// TestInternalExportsHaveCallers fails on any exported function or
// method under internal/ that only its own package's tests use: no
// non-test file in the module (bench/, cmd/ and examples/ included)
// and no test file in another directory. Such a function is either dead
// code or a test oracle, and belongs in the package's _test.go files.
//
// Uses are resolved by type: every package is type-checked through
// internal/lint/loader, its test files on top of it, so a field or
// another declaration that shares a function's name does not count as
// a call. A generic method's instantiations count for its declaration,
// and a method counts as used when a used interface method names it and
// its type satisfies that interface. bench/ is a module of its own, but
// it imports only this module and the standard library, so the loader
// checks it like any other directory.
func TestInternalExportsHaveCallers(t *testing.T) {
	modName, root, err := loader.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := loader.New(loader.Config{ModName: modName, ModDir: root})
	codeDirs := map[string]bool{}      // directories with non-test Go files
	testFiles := map[string][]string{} // directory -> its test files
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, "_test.go") {
			codeDirs[dir] = true
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		testFiles[dir] = append(testFiles[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []*types.Func        // exported functions and methods under internal/
	used := map[*types.Func]bool{} // declarations some use resolves to
	var ifaceUsed []*types.Func    // interface methods used anywhere
	// record marks what info's uses resolve to, except in package from;
	// imp maps a use into a package it checked again to the loader's
	// declaration.
	record := func(info *types.Info, from string, imp *withTested) {
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() == from {
				continue
			}
			fn = imp.original(fn.Origin())
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUsed = append(ifaceUsed, fn)
			}
		}
	}
	pkgs := map[string]*loader.Package{}   // directory -> its package
	byPath := map[string]*loader.Package{} // import path -> its package
	for _, dir := range sortedKeys(codeDirs) {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[dir], byPath[p.ImportPath] = p, p
		record(p.Info, "", nil) // a package's own code counts as a caller
		if !strings.HasPrefix(filepath.ToSlash(dir), "internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || (fn.Recv != nil && stdInterfaceMethods[fn.Name.Name]) {
					continue
				}
				decls = append(decls, p.Info.Defs[fn.Name].(*types.Func))
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/; is the test running from the module root?")
	}

	// Test files are checked on top of their package: the in-package ones
	// with its files, the external ones against the package together with
	// its in-package test files, as go test builds them, so a helper an
	// export_test.go-style file declares resolves. A use counts only when
	// it leaves the test's own package.
	for _, dir := range sortedKeys(testFiles) {
		self := pkgs[dir]
		path := modName
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		var internal, external []*ast.File
		if self != nil {
			internal = append(internal, self.Files...)
		}
		for _, name := range testFiles[dir] {
			f, err := parser.ParseFile(l.Fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(f.Name.Name, "_test") {
				external = append(external, f)
			} else {
				internal = append(internal, f)
			}
		}
		imp := &withTested{Loader: l, byPath: byPath}
		if len(internal) > 0 && (self == nil || len(internal) > len(self.Files)) {
			tested, info := checkFiles(t, imp, path, internal)
			record(info, path, nil)
			imp = &withTested{Loader: l, byPath: byPath, tested: tested}
		}
		if len(external) > 0 {
			_, info := checkFiles(t, imp, path+"_test", external)
			record(info, path, imp)
		}
	}

	var orphans []string
	for _, fn := range decls {
		if used[fn] || satisfiesUsed(fn, ifaceUsed) {
			continue
		}
		orphans = append(orphans, l.Fset.Position(fn.Pos()).String()+": "+fn.FullName())
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is used only by its own package's tests: delete it, or move it into a _test.go file", o)
	}
}

// checkFiles type-checks files as package path and returns the package
// and its uses.
func checkFiles(t *testing.T, imp *withTested, path string, files []*ast.File) (*types.Package, *types.Info) {
	t.Helper()
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(path, imp.Fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return pkg, info
}

// withTested is the importer a directory's external tests are checked
// with, the way go test builds them: the package under test is tested,
// its in-package test files included, and every module package that
// imports it, directly or not, is checked again on top of that, so the
// two agree on its types. Every other path, and every path when tested
// is nil, resolves through the loader.
type withTested struct {
	*loader.Loader
	byPath map[string]*loader.Package // the loader's module packages
	tested *types.Package
	copies map[string]*types.Package         // import path -> checked again
	orig   map[*types.Package]*types.Package // and back to the loader's
}

func (w *withTested) Import(path string) (*types.Package, error) {
	if w.tested == nil {
		return w.Loader.Import(path)
	}
	if path == w.tested.Path() {
		return w.tested, nil
	}
	if c, ok := w.copies[path]; ok {
		return c, nil
	}
	pkg, err := w.Loader.Import(path)
	src := w.byPath[path] // nil for the standard library, which imports no module package
	if err != nil || src == nil || !imports(pkg, w.tested.Path(), map[*types.Package]bool{}) {
		return pkg, err
	}
	c, err := (&types.Config{Importer: w}).Check(path, w.Fset, src.Files, nil)
	if err != nil {
		return nil, err
	}
	if w.copies == nil {
		w.copies, w.orig = map[string]*types.Package{}, map[*types.Package]*types.Package{}
	}
	w.copies[path], w.orig[c] = c, pkg
	return c, nil
}

// original maps a function or method of a package Import checked again
// to the loader's declaration of it; any other fn is its own.
func (w *withTested) original(fn *types.Func) *types.Func {
	if w == nil || w.orig[fn.Pkg()] == nil {
		return fn
	}
	pkg := w.orig[fn.Pkg()]
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg.Scope().Lookup(fn.Name()).(*types.Func)
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		if tn := pkg.Scope().Lookup(named.Obj().Name()); tn != nil {
			obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, fn.Name())
			if m, ok := obj.(*types.Func); ok {
				return m
			}
		}
	}
	return fn
}

// imports reports whether pkg imports path, directly or not.
func imports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[pkg] {
		return false
	}
	seen[pkg] = true
	for _, p := range pkg.Imports() {
		if p.Path() == path || imports(p, path, seen) {
			return true
		}
	}
	return false
}

// satisfiesUsed reports whether method fn's receiver type satisfies the
// interface of a used interface method of the same name.
func satisfiesUsed(fn *types.Func, ifaceUsed []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for _, m := range ifaceUsed {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
