package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The fixture packages of the analyzers' own golden tests double as
// end-to-end inputs for the CLI: a flagged fixture must drive exit code
// 1, a clean one exit code 0.
const fixtures = "../../internal/analysis/analyzers/testdata"

// runBuf invokes the CLI with captured output.
func runBuf(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunList(t *testing.T) {
	code, out, _ := runBuf("-list")
	if code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	for _, name := range []string{"epsconst", "failclosed", "floatcmp", "guardedby", "hotpath", "lockpair", "maprange", "randsource", "wallclock"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	if code, _, _ := runBuf("-only", "nosuch"); code != 2 {
		t.Errorf("run(-only nosuch) = %d, want 2", code)
	}
	if code, _, _ := runBuf("-skip", "nosuch"); code != 2 {
		t.Errorf("run(-skip nosuch) = %d, want 2", code)
	}
}

func TestRunBadPattern(t *testing.T) {
	if code, _, _ := runBuf("./does-not-exist"); code != 2 {
		t.Errorf("run(./does-not-exist) = %d, want 2", code)
	}
}

func TestRunFlaggedFixture(t *testing.T) {
	code, out, _ := runBuf("-only", "wallclock", fixtures+"/wallclock/flagged")
	if code != 1 {
		t.Errorf("run on flagged fixture = %d, want 1", code)
	}
	if !strings.Contains(out, "wallclock:") {
		t.Errorf("findings missing from stdout:\n%s", out)
	}
}

func TestRunCleanFixture(t *testing.T) {
	if code, _, _ := runBuf("-only", "wallclock", fixtures+"/wallclock/clean"); code != 0 {
		t.Errorf("run on clean fixture = %d, want 0", code)
	}
}

// TestRunSkip: skipping the only analyzer that would fire turns a flagged
// fixture clean.
func TestRunSkip(t *testing.T) {
	code, _, _ := runBuf("-only", "wallclock,floatcmp", "-skip", "wallclock", fixtures+"/wallclock/flagged")
	if code != 0 {
		t.Errorf("run(-skip wallclock) on wallclock fixture = %d, want 0", code)
	}
}

// TestRunJSON round-trips the -json report through encoding/json and
// checks it against the schema documented in API.md.
func TestRunJSON(t *testing.T) {
	code, out, _ := runBuf("-json", "-only", "wallclock", fixtures+"/wallclock/flagged")
	if code != 1 {
		t.Fatalf("run(-json) on flagged fixture = %d, want 1", code)
	}
	var rep vetReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if rep.Version != 1 {
		t.Errorf("report version = %d, want 1", rep.Version)
	}
	if len(rep.Analyzers) != 1 || rep.Analyzers[0].Name != "wallclock" || rep.Analyzers[0].Doc == "" {
		t.Errorf("analyzers = %+v, want the selected wallclock entry with its doc", rep.Analyzers)
	}
	if rep.Packages < 1 {
		t.Errorf("packages = %d, want >= 1", rep.Packages)
	}
	if len(rep.Findings) == 0 {
		t.Fatalf("flagged fixture produced no findings in the report")
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "wallclock" || f.File == "" || f.Line <= 0 || f.Column <= 0 || f.Message == "" {
			t.Errorf("finding %+v has empty or invalid fields", f)
		}
	}
	if rep.Counts["wallclock"] != len(rep.Findings) {
		t.Errorf("counts[wallclock] = %d, want %d", rep.Counts["wallclock"], len(rep.Findings))
	}
}

// TestRunJSONCleanHasZeroCounts: a clean run still reports every selected
// analyzer in counts, so "ran clean" is distinguishable from "not run".
func TestRunJSONCleanHasZeroCounts(t *testing.T) {
	code, out, _ := runBuf("-json", "-only", "wallclock,floatcmp", fixtures+"/wallclock/clean")
	if code != 0 {
		t.Fatalf("run(-json) on clean fixture = %d, want 0", code)
	}
	var rep vetReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("clean fixture produced findings: %+v", rep.Findings)
	}
	for _, name := range []string{"wallclock", "floatcmp"} {
		if n, ok := rep.Counts[name]; !ok || n != 0 {
			t.Errorf("counts[%s] = %d (present=%v), want explicit 0", name, n, ok)
		}
	}
}

// TestRunCounts: -counts prints a stderr tally line per selected
// analyzer, zeroes included.
func TestRunCounts(t *testing.T) {
	code, _, stderr := runBuf("-counts", "-only", "wallclock,floatcmp", fixtures+"/wallclock/flagged")
	if code != 1 {
		t.Fatalf("run(-counts) on flagged fixture = %d, want 1", code)
	}
	if !strings.Contains(stderr, "wallclock") || !strings.Contains(stderr, "floatcmp") {
		t.Errorf("-counts output missing analyzer tallies:\n%s", stderr)
	}
	if !strings.Contains(stderr, "floatcmp    0") {
		t.Errorf("-counts should report an explicit 0 for floatcmp:\n%s", stderr)
	}
}

// TestSelfCheck: the linter lints the linter. The full suite over
// internal/analysis (framework, harness, analyzers — testdata is excluded
// by pattern expansion) must be clean.
func TestSelfCheck(t *testing.T) {
	code, out, stderr := runBuf("../../internal/analysis/...")
	if code != 0 {
		t.Errorf("cubefit-vet over internal/analysis = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}
