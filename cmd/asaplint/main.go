// Command asaplint is the repo's invariant gate: a static-analysis
// multichecker enforcing the determinism, time-model and concurrency
// rules that make experiment runs byte-identical for a given seed
// (DESIGN.md §11, §16). It loads every listed package as one program
// and runs ten analyzers over it, in this order:
//
//	schedtime  — no direct time-package scheduling or clock reads
//	seededrand — no global math/rand, no wall-clock-seeded sources
//	schedgo    — no bare `go` statements off the Scheduler
//	maporder   — no map iteration order leaking into output
//	lockio     — no transport I/O while a mutex is held
//	poolreturn — no transport pool acquire without a release on every path
//	taskleak   — every Scheduler.Go task signals completion; every
//	             AfterFunc timer has a Stop path
//	protosync  — MsgType enum vs String()/dispatch/pairing, Message
//	             fields vs codec field ids
//	lockorder  — no cycles in the whole-program lock-acquisition graph
//	errclass   — errors retried by RetryPolicy.Do trace to classified
//	             transient/non-transient sources
//
// The first seven check one package at a time; the last three span
// package boundaries. No analyzer sees a *_test.go file: the loader
// never reads one.
//
// Usage:
//
//	asaplint [packages...]     # default ./internal/...
//
// A finding can be suppressed — with a justification, which is
// mandatory — by a comment on the flagged line or the line above:
//
//	//lint:allow schedtime net deadlines are absolute wall-clock instants
//
// Several findings on one line are suppressed by chaining directives in
// one comment: //lint:allow schedtime <why> //lint:allow schedgo <why>.
//
// Exit status is 1 if any finding remains unsuppressed.
package main

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"asap/internal/lint/analysis"
	"asap/internal/lint/errclass"
	"asap/internal/lint/loader"
	"asap/internal/lint/lockio"
	"asap/internal/lint/lockorder"
	"asap/internal/lint/maporder"
	"asap/internal/lint/poolreturn"
	"asap/internal/lint/protosync"
	"asap/internal/lint/schedgo"
	"asap/internal/lint/schedtime"
	"asap/internal/lint/seededrand"
	"asap/internal/lint/taskleak"
)

var analyzers = []*analysis.Analyzer{
	schedtime.Analyzer,
	seededrand.Analyzer,
	schedgo.Analyzer,
	maporder.Analyzer,
	lockio.Analyzer,
	poolreturn.Analyzer,
	taskleak.Analyzer,
	protosync.Analyzer,
	lockorder.Analyzer,
	errclass.Analyzer,
}

type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

// allow is one parsed //lint:allow comment.
type allow struct {
	analyzer      string
	justification string
	used          bool
	pos           token.Position
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		usage()
		return
	}
	if len(args) == 0 {
		args = []string{"./internal/..."}
	}
	dirs, err := expand(args)
	if err != nil {
		fatal(err)
	}
	modName, modDir, err := loader.FindModule(".")
	if err != nil {
		fatal(err)
	}
	ld := loader.New(loader.Config{ModName: modName, ModDir: modDir})

	var pkgs []*loader.Package
	for _, dir := range dirs {
		pkg, err := ld.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lintAll(pkgs)
	if err != nil {
		fatal(err)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})
	cwd, _ := os.Getwd()
	for _, f := range findings {
		name := f.pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, f.pos.Line, f.pos.Column, f.analyzer, f.message)
	}
	if n := len(findings); n > 0 {
		fmt.Printf("asaplint: %d finding(s)\n", n)
		os.Exit(1)
	}
	fmt.Printf("asaplint: %d package(s) clean (%s)\n", len(dirs), analyzerNames())
}

// lintAll runs every analyzer over the packages as one program,
// applying //lint:allow suppressions from every loaded file.
func lintAll(pkgs []*loader.Package) ([]finding, error) {
	allows := make(map[string][]*allow)
	var findings []finding
	for _, pkg := range pkgs {
		findings = append(findings, collectAllows(pkg, allows)...)
	}
	prog := analysis.NewProgram(pkgs)
	for _, a := range analyzers {
		prog.Report = func(d analysis.Diagnostic) {
			pos := prog.Fset.Position(d.Pos)
			if !suppressed(allows, a.Name, pos) {
				findings = append(findings, finding{pos: pos, analyzer: a.Name, message: d.Message})
			}
		}
		if err := a.Run(prog); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return findings, nil
}

// collectAllows parses every //lint:allow comment in the package into
// allows (keyed by filename, shared across packages). A malformed allow
// — unknown analyzer or missing justification — is itself a finding:
// suppressions must say which rule is being waived and why. One comment
// may chain several directives ("//lint:allow a why //lint:allow b
// why") to suppress findings from different analyzers on one line; each
// directive is parsed independently.
func collectAllows(pkg *loader.Package, allows map[string][]*allow) []finding {
	var findings []finding
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:allow") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				// Split a chained comment into one segment per directive;
				// the justification of each runs to the next directive.
				for _, rest := range strings.Split(c.Text, "//lint:allow")[1:] {
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0 || !known[fields[0]]:
						findings = append(findings, finding{pos: pos, analyzer: "allow",
							message: fmt.Sprintf("//lint:allow must name an analyzer (%s)", analyzerNames())})
					case len(fields) < 2:
						findings = append(findings, finding{pos: pos, analyzer: "allow",
							message: fmt.Sprintf("//lint:allow %s needs a justification: //lint:allow %[1]s <why this exemption is sound>", fields[0])})
					default:
						allows[pos.Filename] = append(allows[pos.Filename],
							&allow{analyzer: fields[0], justification: strings.Join(fields[1:], " "), pos: pos})
					}
				}
			}
		}
	}
	return findings
}

// suppressed reports whether a well-formed allow for the analyzer sits
// on the finding's line or the line directly above it.
func suppressed(allows map[string][]*allow, analyzer string, pos token.Position) bool {
	for _, al := range allows[pos.Filename] {
		if al.analyzer == analyzer && (al.pos.Line == pos.Line || al.pos.Line == pos.Line-1) {
			al.used = true
			return true
		}
	}
	return false
}

// expand resolves package arguments: a trailing "/..." walks the tree
// for directories containing non-test Go files; testdata and hidden
// directories are skipped.
func expand(args []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		if root == "" {
			root = "."
		}
		if !recursive {
			add(filepath.Clean(arg))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func analyzerNames() string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

func usage() {
	fmt.Println("asaplint [packages...]  (default ./internal/...)")
	fmt.Println()
	for _, a := range analyzers {
		fmt.Printf("  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Suppress one finding, with a mandatory justification, via a comment on")
	fmt.Println("the flagged line or the line above:")
	fmt.Println("  //lint:allow <analyzer> <why this exemption is sound>")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asaplint:", err)
	os.Exit(1)
}
