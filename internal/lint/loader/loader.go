// Package loader parses and type-checks Go packages for asaplint without
// golang.org/x/tools (the container has no module proxy). Module-local
// packages ("asap/...") are resolved by mapping the import path onto the
// repository directory; test fixtures are resolved GOPATH-style against
// extra source roots (testdata/src); everything else — the standard
// library — is type-checked from GOROOT source via the stdlib "source"
// importer, which needs no pre-compiled export data and works offline.
//
// The loader never reads a *_test.go file. That is the one place the
// rule "analyzers check shipped code, not tests" lives: wall-mode
// regression tests need real sleeps and real goroutines (DESIGN.md §10),
// and no analyzer has to know they exist.
package loader

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Config controls import-path resolution.
type Config struct {
	// ModName is the module path from go.mod (e.g. "asap"); imports under
	// it resolve into ModDir. Empty disables module mapping.
	ModName string
	// ModDir is the module root directory.
	ModDir string
	// SrcDirs are GOPATH-style source roots consulted before the module
	// mapping; analysistest points one at testdata/src so fixture
	// packages can shadow real import paths.
	SrcDirs []string
}

// Package is one parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader loads packages, caching across LoadDir calls so shared
// dependencies type-check once.
type Loader struct {
	cfg     Config
	Fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	typed   map[string]*types.Package
	loading map[string]bool
}

// New returns a Loader for the given configuration.
func New(cfg Config) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		cfg:     cfg,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		typed:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module path and root directory.
func FindModule(dir string) (name, root string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("loader: no go.mod above %s", abs)
		}
		d = parent
	}
}

// LoadDir loads the package rooted at dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// importPathFor maps a directory to its import path via SrcDirs first,
// then the module mapping.
func (l *Loader) importPathFor(abs string) (string, error) {
	for _, root := range l.cfg.SrcDirs {
		r, err := filepath.Abs(root)
		if err != nil {
			continue
		}
		if rel, err := filepath.Rel(r, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return filepath.ToSlash(rel), nil
		}
	}
	if l.cfg.ModDir != "" {
		if rel, err := filepath.Rel(l.cfg.ModDir, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			if rel == "." {
				return l.cfg.ModName, nil
			}
			return l.cfg.ModName + "/" + filepath.ToSlash(rel), nil
		}
	}
	return "", fmt.Errorf("loader: %s is outside every configured source root", abs)
}

// dirFor resolves an import path to a directory, SrcDirs first so
// fixtures can shadow module packages.
func (l *Loader) dirFor(path string) (string, bool) {
	for _, root := range l.cfg.SrcDirs {
		d := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(d) {
			return d, true
		}
	}
	if l.cfg.ModName != "" {
		if path == l.cfg.ModName {
			return l.cfg.ModDir, hasGoFiles(l.cfg.ModDir)
		}
		if rest, ok := strings.CutPrefix(path, l.cfg.ModName+"/"); ok {
			d := filepath.Join(l.cfg.ModDir, filepath.FromSlash(rest))
			return d, hasGoFiles(d)
		}
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSource(e) {
			return true
		}
	}
	return false
}

// isSource reports whether a directory entry is a Go file the loader
// reads: not a test file, and not hidden from the go tool by a leading
// "." or "_".
func isSource(e os.DirEntry) bool {
	n := e.Name()
	return !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
		!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_")
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	var files []*ast.File // os.ReadDir sorts by name
	for _, e := range entries {
		if !isSource(e) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-check %s: %w", path, err)
	}
	p := &Package{ImportPath: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	l.typed[path] = tpkg
	return p, nil
}

// Import implements types.Importer for the packages being checked:
// fixture roots and module-local paths load from source here; everything
// else falls through to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if t, ok := l.typed[path]; ok {
		return t, nil
	}
	if dir, ok := l.dirFor(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
