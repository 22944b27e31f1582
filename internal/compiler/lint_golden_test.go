package compiler_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLintGoldenDiagnostics pins the exact rendered text of every
// diagnostic over the corpus trigger programs, HD001 through HD605:
// codes, positions, messages and fix hints. The frontend wraps HD001 and
// HD002, the GPU-safety pass names the translator's memory spaces in
// HD402 and HD403, and the shared SSA fact base (internal/ir) words every
// HD6xx, so any drift in them shows up as a byte diff here.
func TestLintGoldenDiagnostics(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range lintCorpus {
		fmt.Fprintf(&buf, "== %s ==\n", c.code)
		for _, d := range analysis.Lint(c.code+".c", c.src) {
			fmt.Fprintln(&buf, d.String())
		}
	}
	golden := filepath.Join("testdata", "lint_diags.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/compiler -run LintGolden -update`): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("lint diagnostics differ from %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
