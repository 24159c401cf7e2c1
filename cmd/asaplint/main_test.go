package main

import (
	"strings"
	"testing"

	"asap/internal/lint/loader"
)

// loadFixture lints one or more fixture packages together (the
// whole-program analyzers see them as one program), returning the
// unsuppressed findings.
func loadFixture(t *testing.T, pkgs ...string) []finding {
	t.Helper()
	modName, modDir, err := loader.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	ld := loader.New(loader.Config{ModName: modName, ModDir: modDir, SrcDirs: []string{"testdata/src"}})
	var loaded []*loader.Package
	for _, pkg := range pkgs {
		p, err := ld.LoadDir("testdata/src/" + pkg)
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, p)
	}
	findings, err := lintAll(loaded)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// requireFinding asserts that exactly one finding came from the named
// analyzer, positioned in wantFile with a real line and column, and
// mentioning wantSubstr.
func requireFinding(t *testing.T, findings []finding, analyzer, wantFile, wantSubstr string) {
	t.Helper()
	var hits []finding
	for _, f := range findings {
		if f.analyzer == analyzer {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("got %d %s findings, want 1: %+v", len(hits), analyzer, findings)
	}
	f := hits[0]
	if !strings.HasSuffix(f.pos.Filename, wantFile) || f.pos.Line == 0 || f.pos.Column == 0 {
		t.Errorf("diagnostic position = %s:%d:%d, want %s with line and column", f.pos.Filename, f.pos.Line, f.pos.Column, wantFile)
	}
	if !strings.Contains(f.message, wantSubstr) {
		t.Errorf("message %q does not mention %q", f.message, wantSubstr)
	}
}

// TestInjectedViolation is the acceptance check for the gate itself: a
// time.Sleep smuggled into a linted package must surface as a
// file:line:col diagnostic from the schedtime analyzer.
func TestInjectedViolation(t *testing.T) {
	findings := loadFixture(t, "viol")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	requireFinding(t, findings, "schedtime", "viol.go", "")
}

// TestTestFilesAreNotLinted: a package's *_test.go files never reach an
// analyzer. The fixture's test file holds a bare go statement and a
// time.Sleep; only the shipped file's bare go statement is a finding.
func TestTestFilesAreNotLinted(t *testing.T) {
	findings := loadFixture(t, "withtests")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	requireFinding(t, findings, "schedgo", "x.go", "bare go statement")
}

// TestInjectedProtocolDrift: a MsgType constant that no handler
// dispatches must surface from protosync.
func TestInjectedProtocolDrift(t *testing.T) {
	findings := loadFixture(t, "protoviol")
	requireFinding(t, findings, "protosync", "protoviol.go", "MsgNew is declared but no non-test handler dispatches it")
}

// TestInjectedLockCycle: two functions nesting the same pair of locks in
// opposite orders must surface from lockorder as a deadlock cycle.
func TestInjectedLockCycle(t *testing.T) {
	findings := loadFixture(t, "lockviol")
	requireFinding(t, findings, "lockorder", "lockviol.go", "potential deadlock: lock-order cycle")
}

// TestInjectedTaskLeak: a Scheduler.Go task with no completion signal
// must surface from taskleak.
func TestInjectedTaskLeak(t *testing.T) {
	findings := loadFixture(t, "taskviol")
	requireFinding(t, findings, "taskleak", "taskviol.go", "never signals completion")
}

// TestInjectedUnclassifiedRetry: an opaque helper error returned into
// RetryPolicy.Do must surface from errclass.
func TestInjectedUnclassifiedRetry(t *testing.T) {
	findings := loadFixture(t, "errviol")
	requireFinding(t, findings, "errclass", "errviol.go", "neither a transport-layer call nor marked //lint:errclass")
}

// TestAllowSuppression: a //lint:allow with the analyzer name and a
// justification on the line above silences exactly that finding.
func TestAllowSuppression(t *testing.T) {
	if findings := loadFixture(t, "allowed"); len(findings) != 0 {
		t.Fatalf("justified //lint:allow did not suppress: %+v", findings)
	}
}

// TestAllowChained: one comment chaining two directives suppresses
// findings from two different analyzers on the same line.
func TestAllowChained(t *testing.T) {
	if findings := loadFixture(t, "chained"); len(findings) != 0 {
		t.Fatalf("chained //lint:allow directives did not suppress both findings: %+v", findings)
	}
}

// TestAllowOnLastLine: a trailing same-line suppression works on the
// final line of a file (no line below exists to look up from).
func TestAllowOnLastLine(t *testing.T) {
	if findings := loadFixture(t, "lastline"); len(findings) != 0 {
		t.Fatalf("//lint:allow on the file's last line did not suppress: %+v", findings)
	}
}

// TestAllowRequiresJustification: a bare //lint:allow is itself a
// finding and suppresses nothing; a whitespace-only justification is
// bare; an unknown analyzer name likewise.
func TestAllowRequiresJustification(t *testing.T) {
	findings := loadFixture(t, "badallow")
	var needsWhy, sawUnknown, unsuppressed int
	for _, f := range findings {
		switch {
		case f.analyzer == "allow" && strings.Contains(f.message, "needs a justification"):
			needsWhy++
		case f.analyzer == "allow" && strings.Contains(f.message, "must name an analyzer"):
			sawUnknown++
		case f.analyzer == "schedtime":
			unsuppressed++
		}
	}
	if needsWhy != 2 {
		t.Errorf("got %d 'needs a justification' findings, want 2 (bare directive, whitespace-only justification)", needsWhy)
	}
	if sawUnknown != 1 {
		t.Errorf("got %d 'must name an analyzer' findings, want 1", sawUnknown)
	}
	if unsuppressed != 3 {
		t.Errorf("got %d unsuppressed schedtime findings, want 3: malformed allows must not suppress", unsuppressed)
	}
}
