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
	// record marks what info's uses resolve to, except in package from.
	record := func(info *types.Info, from string) {
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() == from {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUsed = append(ifaceUsed, fn)
			}
		}
	}
	pkgs := map[string]*loader.Package{} // directory -> its package
	for _, dir := range sortedKeys(codeDirs) {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[dir] = p
		record(p.Info, "") // a package's own code counts as a caller
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
	// with its files, the external ones against the package as the loader
	// built it, which every other package they import also sees. A use
	// counts only when it leaves the test's own package.
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
		if len(internal) > 0 && (self == nil || len(internal) > len(self.Files)) {
			record(checkFiles(t, l, path, internal), path)
		}
		if len(external) > 0 {
			record(checkFiles(t, l, path+"_test", external), path)
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

// checkFiles type-checks files as package path and returns their uses.
func checkFiles(t *testing.T, l *loader.Loader, path string, files []*ast.File) *types.Info {
	t.Helper()
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: l}).Check(path, l.Fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return info
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
