package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/hdbench -run Golden -update`): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestDumpBytecodeGolden pins `hdbench -dump-bytecode` for every Table-2
// benchmark: the optimized host programs, kernel programs and reduce
// filter of each job, as the VM runs them. Any change to what the SSA
// optimizer leaves behind shows up here as a byte diff.
func TestDumpBytecodeGolden(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Code, func(t *testing.T) {
			var buf bytes.Buffer
			if err := dumpBytecode(&buf, b.Code); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, b.Code+".disasm", buf.Bytes())
		})
	}
}

// TestOptReportGolden pins `hdbench -opt-report`: the per-pass rewrite
// counts of every optimized stage program, and the VM cost of every map
// stage under each cumulative pass mask of OptimizeSelected.
func TestOptReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runOptReport(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "opt-report.golden", buf.Bytes())
}
