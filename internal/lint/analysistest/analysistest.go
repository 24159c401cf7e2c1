// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against `// want "regexp"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that the fixtures read identically.
//
// Expectations: a line carrying `// want "pat"` (one or more quoted
// patterns) must receive one diagnostic per pattern, each matching its
// regexp. Any diagnostic on a line without a matching expectation, and
// any expectation left unmatched, fails the test. Fixtures load through
// the same loader as asaplint, so *_test.go files are never read.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"asap/internal/lint/analysis"
	"asap/internal/lint/loader"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture packages (paths relative to testdata/src) as
// one program, applies the analyzer once across it, and checks the
// combined diagnostics against the want comments in all of them.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	modName, modDir, err := loader.FindModule(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	ld := loader.New(loader.Config{ModName: modName, ModDir: modDir, SrcDirs: []string{src}})
	want := make(map[string][]*expectation)
	var loaded []*loader.Package
	for _, pkgPath := range pkgs {
		dir := filepath.Join(src, filepath.FromSlash(pkgPath))
		pkg, err := ld.LoadDir(dir)
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", dir, err)
		}
		collectWants(t, pkg, want)
		loaded = append(loaded, pkg)
	}
	var diags []analysis.Diagnostic
	prog := analysis.NewProgram(loaded)
	prog.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
	if err := a.Run(prog); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}
	matchDiags(t, ld.Fset, diags, want)
}

// collectWants gathers the `// want "pat"` expectations of one package,
// keyed by file:line.
func collectWants(t *testing.T, pkg *loader.Package, want map[string][]*expectation) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey(pos.Filename, pos.Line)
				for _, raw := range quotedStrings(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, raw, err)
					}
					want[key] = append(want[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}
}

// matchDiags pairs diagnostics with expectations and reports mismatches.
func matchDiags(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic, want map[string][]*expectation) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := posKey(pos.Filename, pos.Line)
		if !claim(want[key], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	var missed []string
	for key, exps := range want {
		for _, e := range exps {
			if !e.matched {
				missed = append(missed, fmt.Sprintf("%s: no diagnostic matching %q", key, e.raw))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
}

// claim marks the first unmatched expectation whose pattern matches msg.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

func posKey(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filename, line)
}

// quotedStrings extracts the double-quoted Go string literals from the
// tail of a want comment.
func quotedStrings(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		rest := s[i:]
		// Find the end of this Go string literal, honoring escapes.
		j := 1
		for j < len(rest) {
			if rest[j] == '\\' {
				j += 2
				continue
			}
			if rest[j] == '"' {
				break
			}
			j++
		}
		if j >= len(rest) {
			return out
		}
		if q, err := strconv.Unquote(rest[:j+1]); err == nil {
			out = append(out, q)
		}
		s = rest[j+1:]
	}
}
