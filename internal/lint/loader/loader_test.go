package loader

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadDirSkipsTestFiles: a package directory holding an in-package
// test file and an external test package loads as its one shipped file.
func TestLoadDirSkipsTestFiles(t *testing.T) {
	src := t.TempDir()
	dir := filepath.Join(src, "foo")
	files := map[string]string{
		"foo.go":               "package foo\n\nfunc F() int { return 1 }\n",
		"foo_internal_test.go": "package foo\n\nfunc helper() int { return F() }\n",
		"foo_test.go":          "package foo_test\n\nimport \"foo\"\n\nvar _ = foo.F()\n",
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := New(Config{SrcDirs: []string{src}}).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want only foo.go", len(pkg.Files))
	}
	if got := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename); got != "foo.go" {
		t.Errorf("loaded %s, want foo.go", got)
	}
	if pkg.Types.Scope().Lookup("helper") != nil {
		t.Error("the in-package test file's helper was type-checked into the package")
	}
}
