package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainExitCodes pins the exit-code contract CI depends on:
// 0 clean, 1 findings, 2 load/usage error.
func TestMainExitCodes(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, ExitFindings, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "errdiscipline") {
			t.Errorf("stdout lacks a finding line:\n%s", out.String())
		}
		if !strings.Contains(errb.String(), "finding(s)") {
			t.Errorf("stderr lacks the summary line:\n%s", errb.String())
		}
	})

	t.Run("dotdotdot", func(t *testing.T) {
		// go-tool muscle memory: `rarlint dir/...` analyzes dir's module.
		var out, errb strings.Builder
		code := Main([]string{filepath.Join("testdata", "errdiscipline") + "/..."}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
	})

	t.Run("checks-filter", func(t *testing.T) {
		// The determinism corpus has no errdiscipline findings, so
		// filtering to errdiscipline comes back clean.
		var out, errb strings.Builder
		code := Main([]string{"-checks", "errdiscipline", filepath.Join("testdata", "determinism")}, &out, &errb)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, ExitClean, out.String(), errb.String())
		}
	})

	t.Run("check-alias", func(t *testing.T) {
		// -check is an alias for -checks; both filter to a subset.
		var out, errb strings.Builder
		code := Main([]string{"-check", "errdiscipline", filepath.Join("testdata", "determinism")}, &out, &errb)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, ExitClean, out.String(), errb.String())
		}
		out.Reset()
		errb.Reset()
		code = Main([]string{"-check", "determinism", filepath.Join("testdata", "determinism")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
		if !strings.Contains(out.String(), "determinism") {
			t.Errorf("-check filter lost the determinism findings:\n%s", out.String())
		}
	})

	t.Run("check-alias-unknown", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-check", "nosuch", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d", code, ExitError)
		}
		if !strings.Contains(errb.String(), "unknown check") {
			t.Errorf("stderr lacks the unknown-check error:\n%s", errb.String())
		}
	})

	t.Run("unknown-check", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-checks", "nosuch", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d", code, ExitError)
		}
		if !strings.Contains(errb.String(), "unknown check") {
			t.Errorf("stderr lacks the unknown-check error:\n%s", errb.String())
		}
	})

	t.Run("no-module", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{t.TempDir()}, &out, &errb)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitError, errb.String())
		}
	})
}

// TestJSONOutput pins the -json schema CI rewrites into GitHub Actions
// annotations: an array of {file,line,col,check,message} records, and a
// literal empty array on a clean run so pipelines always parse stdout.
func TestJSONOutput(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-json", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
		var recs []jsonDiagnostic
		if err := json.Unmarshal([]byte(out.String()), &recs); err != nil {
			t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
		}
		if len(recs) == 0 {
			t.Fatal("JSON array is empty despite ExitFindings")
		}
		for _, r := range recs {
			if r.File == "" || r.Line <= 0 || r.Col <= 0 || r.Check == "" || r.Message == "" {
				t.Errorf("incomplete record: %+v", r)
			}
			if filepath.IsAbs(r.File) {
				t.Errorf("file %q is absolute; CI annotations need repo-relative paths", r.File)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-json", "-checks", "errdiscipline", filepath.Join("testdata", "determinism")}, &out, &errb)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitClean, errb.String())
		}
		if got := strings.TrimSpace(out.String()); got != "[]" {
			t.Errorf("clean -json stdout = %q, want \"[]\"", got)
		}
	})
}

// TestTestsFlag pins the -tests loader: without it test files are
// invisible; with it both in-package and external-test-package files
// are loaded, type-checked and analyzed.
func TestTestsFlag(t *testing.T) {
	dir := filepath.Join("testdata", "testsflag")

	var out, errb strings.Builder
	if code := Main([]string{dir}, &out, &errb); code != ExitClean {
		t.Fatalf("without -tests: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := Main([]string{"-tests", dir}, &out, &errb); code != ExitFindings {
		t.Fatalf("with -tests: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitFindings, out.String(), errb.String())
	}
	for _, file := range []string{"sim_test.go", "ext_test.go"} {
		if !strings.Contains(out.String(), file) {
			t.Errorf("-tests findings lack the violation in %s:\n%s", file, out.String())
		}
	}
}

// TestSARIFOutput pins the -sarif schema GitHub code scanning ingests:
// a 2.1.0 log with a rarlint driver, one rule per check (plus the
// "lint" directive pseudo-check), and results whose ruleIndex points
// back into the rules array. A clean run still emits the full skeleton
// with an empty results array so the CI upload step never branches.
func TestSARIFOutput(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-sarif", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
		var log sarifLog
		if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
			t.Fatalf("stdout is not a SARIF log: %v\n%s", err, out.String())
		}
		if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
			t.Errorf("log version = %q schema = %q, want 2.1.0", log.Version, log.Schema)
		}
		if len(log.Runs) != 1 {
			t.Fatalf("log has %d runs, want 1", len(log.Runs))
		}
		run := log.Runs[0]
		if run.Tool.Driver.Name != "rarlint" {
			t.Errorf("driver name = %q, want rarlint", run.Tool.Driver.Name)
		}
		if want := len(Analyzers()) + 1; len(run.Tool.Driver.Rules) != want {
			t.Errorf("driver has %d rules, want %d (every check plus \"lint\")",
				len(run.Tool.Driver.Rules), want)
		}
		if len(run.Results) == 0 {
			t.Fatal("results array is empty despite ExitFindings")
		}
		for _, r := range run.Results {
			if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
				run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
				t.Errorf("result ruleIndex %d does not resolve to ruleId %q", r.RuleIndex, r.RuleID)
			}
			if r.Level != "error" || r.Message.Text == "" || len(r.Locations) != 1 {
				t.Errorf("incomplete result: %+v", r)
			}
			loc := r.Locations[0].PhysicalLocation
			if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
				t.Errorf("result lacks a region: %+v", loc)
			}
			uri := loc.ArtifactLocation.URI
			if uri == "" || strings.Contains(uri, "\\") || filepath.IsAbs(uri) {
				t.Errorf("artifact URI %q must be a relative slash path", uri)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-sarif", "-checks", "errdiscipline", filepath.Join("testdata", "determinism")}, &out, &errb)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitClean, errb.String())
		}
		var log sarifLog
		if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
			t.Fatalf("clean -sarif stdout is not a SARIF log: %v\n%s", err, out.String())
		}
		if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
			t.Errorf("clean log must hold one run with an empty (non-null) results array:\n%s", out.String())
		}
	})

	t.Run("exclusive-with-json", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-json", "-sarif", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d", code, ExitError)
		}
		if !strings.Contains(errb.String(), "mutually exclusive") {
			t.Errorf("stderr lacks the mutual-exclusion error:\n%s", errb.String())
		}
	})
}

// TestRepoIsClean is the acceptance regression: rarlint on this
// repository itself must exit 0 with the full nine-check suite — every
// real finding is either fixed or carries an audited directive — and
// stay clean when the repository's own test files are loaded too. The
// hard-coded wantChecks list is deliberate: registering a tenth
// analyzer without extending it (and therefore without auditing the
// tree against it) fails here, so a new check cannot ship unwired.
func TestRepoIsClean(t *testing.T) {
	wantChecks := []string{
		"determinism", "statshygiene", "configcoverage", "errdiscipline",
		"purity", "flushreset", "units", "lockcheck", "hotalloc",
	}
	as := Analyzers()
	if len(as) != len(wantChecks) {
		t.Fatalf("Analyzers() has %d checks, want %d", len(as), len(wantChecks))
	}
	for i, want := range wantChecks {
		if as[i].Name != want {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, as[i].Name, want)
		}
	}

	var out, errb strings.Builder
	code := Main([]string{filepath.Join("..", "..")}, &out, &errb)
	if code != ExitClean {
		t.Fatalf("rarlint on the repo: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	code = Main([]string{"-tests", filepath.Join("..", "..")}, &out, &errb)
	if code != ExitClean {
		t.Fatalf("rarlint -tests on the repo: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, out.String(), errb.String())
	}
}
