package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/workload"
)

// TestBenchmarksLintClean asserts the paper's eight benchmarks pass the
// full static-analysis suite: nothing at warning severity or above, in any
// map, combine, or reduce program.
func TestBenchmarksLintClean(t *testing.T) {
	for _, b := range workload.All() {
		sources := map[string]string{
			"map":     b.Job.MapSrc,
			"combine": b.Job.CombineSrc,
			"reduce":  b.Job.ReduceSrc,
		}
		for stage, src := range sources {
			if src == "" {
				continue
			}
			diags := analysis.Lint(b.Code+"-"+stage+".c", src)
			if !analysis.Clean(diags) {
				var lines []string
				for _, d := range diags {
					lines = append(lines, d.String())
				}
				t.Errorf("%s %s: lint not clean:\n%s", b.Code, stage, strings.Join(lines, "\n"))
			}
		}
	}
}

// TestWordcountRedundantInitInfo pins the one expected info-level finding:
// Listing 1's defensive `linePtr = 0` is kept for paper fidelity and
// reported at info severity (HD204), which does not affect cleanliness.
func TestWordcountRedundantInitInfo(t *testing.T) {
	diags := analysis.Lint("wc-map.c", workload.WordcountMap)
	found := false
	for _, d := range diags {
		if d.Code == "HD204" {
			found = true
			if d.Severity != analysis.SevInfo {
				t.Errorf("HD204 severity = %v, want info", d.Severity)
			}
		}
	}
	if !found {
		t.Errorf("expected HD204 (redundant linePtr = 0 from Listing 1), got %v", diags)
	}
	if !analysis.Clean(diags) {
		t.Errorf("wordcount map should still lint clean, got %v", diags)
	}
}

// TestDuplicateClauseRejected covers the ParseDirective duplicate-clause
// check added alongside the lint suite.
func TestDuplicateClauseRejected(t *testing.T) {
	if _, err := compiler.ParseDirective("mapreduce mapper key(a) key(b) value(c)"); err == nil ||
		!strings.Contains(err.Error(), "duplicate clause") {
		t.Errorf("duplicate key clause: err = %v, want duplicate-clause error", err)
	}
	if _, err := compiler.ParseDirective("mapreduce mapper combiner key(a) value(c)"); err == nil ||
		!strings.Contains(err.Error(), "more than one mapper/combiner") {
		t.Errorf("double kind: err = %v, want kind error", err)
	}
}

// TestBadPragmaPositionReported: a malformed pragma inside a full program
// surfaces as a positioned HD101 diagnostic pointing at the pragma's own
// line, not at some later token.
func TestBadPragmaPositionReported(t *testing.T) {
	src := `int main() {
	int k, v;
	#pragma mapreduce mapper key(k) value(v) bogus(x)
	{
		k = 1; v = 2;
		printf("%d\t%d\n", k, v);
	}
	return 0;
}`
	diags := analysis.Lint("job.c", src)
	var hit *analysis.Diagnostic
	for i := range diags {
		if diags[i].Code == "HD101" {
			hit = &diags[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no HD101 diagnostic for a bogus clause; got %v", diags)
	}
	if hit.Pos.Line != 3 {
		t.Errorf("HD101 points at line %d, want 3", hit.Pos.Line)
	}
	if !strings.Contains(hit.String(), "job.c:3") {
		t.Errorf("rendered diagnostic does not carry job.c:3: %q", hit.String())
	}
	if !strings.Contains(hit.Message, `"bogus"`) {
		t.Errorf("diagnostic does not name the bad clause: %q", hit.Message)
	}
}

// TestTwoRegionsRefusedAsHD002: the translator takes one mapreduce region
// per file, so a source with two lint-clean mapper loops is an HD002
// error at the second pragma, the refusal hdcc and mr.CompileJob report.
func TestTwoRegionsRefusedAsHD002(t *testing.T) {
	const region = `
	#pragma mapreduce mapper key(k) value(v) blocks(2) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = atoi(line);
		v = 1;
		printf("%d\t%d\n", k, v);
	}`
	src := `int main() {
	char *line;
	size_t n = 100;
	int read, k, v;
	line = (char*) malloc(n * sizeof(char));` + region + region + `
	free(line);
	return 0;
}`
	if _, err := compiler.Compile(src); err == nil || !strings.Contains(err.Error(), "source has 2 mapreduce pragmas") {
		t.Fatalf("compile: err = %v, want the two-pragma refusal", err)
	}
	diags := analysis.Lint("two.c", src)
	if len(diags) != 1 || diags[0].Code != "HD002" || diags[0].Severity != analysis.SevError {
		t.Fatalf("diagnostics = %v, want one HD002 error", diags)
	}
	if d := diags[0]; d.Pos.Line != 12 || !strings.Contains(d.Message, "source has 2 mapreduce pragmas, want 1 per file") {
		t.Errorf("HD002 at line %d with %q, want line 12 and the translator's refusal", d.Pos.Line, d.Message)
	}
}
