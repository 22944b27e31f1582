package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ir"
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

// TestEveryOptimizerPassRewritesABenchmark sums each ir.Stats rewrite
// counter over every Table-2 stage's host and kernel targets, as the opt
// report's TOTAL row does, and fails on a counter that stays 0: the
// benchmark programs are the whole traffic, so a rewrite that none of them
// exercises is not kept.
func TestEveryOptimizerPassRewritesABenchmark(t *testing.T) {
	total := &ir.Stats{}
	if err := eachOptStats(func(_, _ string, st *ir.Stats) { total.Add(st) }); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(*total)
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Funcs", "Rounds", "NodesBefore", "NodesAfter":
		default:
			if v.Field(i).Int() == 0 {
				t.Errorf("ir.Stats.%s is 0 over every benchmark program: none exercises its rewrite", name)
			}
		}
	}
}
