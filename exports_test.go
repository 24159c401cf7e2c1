package asap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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

// exportedDecl is an exported function or method declared in a non-test
// file under internal/.
type exportedDecl struct {
	dir, name, where string
}

// TestInternalExportsHaveCallers fails on any exported function or
// method under internal/ that only its own package's tests name: no
// non-test file in the module (bench/, cmd/ and examples/ included)
// and no test file in another directory. Such a function is either dead
// code or a test oracle, and belongs in the package's _test.go files.
// Names are matched by identifier, so a name any caller uses for
// anything counts as named.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	inCode := map[string]bool{}             // identifiers named by non-test files
	inTests := map[string]map[string]bool{} // identifier -> test directories naming it

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, isTest := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if isTest || !fn.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			if fn.Recv != nil && stdInterfaceMethods[fn.Name.Name] {
				continue
			}
			decls = append(decls, exportedDecl{dir, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declNames[id] {
				return true
			}
			if !isTest {
				inCode[id.Name] = true
			} else {
				if inTests[id.Name] == nil {
					inTests[id.Name] = map[string]bool{}
				}
				inTests[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/; is the test running from the module root?")
	}

	var orphans []string
	for _, d := range decls {
		if inCode[d.name] {
			continue
		}
		named := false
		for dir := range inTests[d.name] {
			if dir != d.dir {
				named = true
				break
			}
		}
		if !named {
			orphans = append(orphans, d.where+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named only by its own package's tests: delete it, or move it into a _test.go file", o)
	}
}
