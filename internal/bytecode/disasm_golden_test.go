package bytecode_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDisassemblyGolden pins the exact disassembly of the paper's
// wordcount map and combine stages — host programs and GPU kernel
// programs. The listing is the compiler-to-VM contract made visible:
// any change to lowering, out-of-SSA copy placement, register
// assignment, or the instruction set shows up as a byte diff here.
// (This lives in an external test package so it can compile a full
// benchmark stage through internal/compiler, which bytecode itself must
// not import.)
func TestDisassemblyGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, stage := range []struct{ name, src string }{
		{"wordcount-map", workload.WordcountMap},
		{"wordcount-combine", workload.WordcountCombine},
	} {
		compiled, err := compiler.CompileOpts(stage.src, compiler.Options{File: stage.name + ".c"})
		if err != nil {
			t.Fatalf("%s: compile: %v", stage.name, err)
		}
		for _, sec := range []struct {
			title string
			prog  *bytecode.Program
		}{
			{"host program", compiled.VM},
			{"kernel", compiled.KernelVM},
		} {
			if err := bytecode.Verify(sec.prog); err != nil {
				t.Errorf("%s %s: verifier rejected compiler output: %v", stage.name, sec.title, err)
			}
			fmt.Fprintf(&buf, "== %s: %s ==\n", stage.name, sec.title)
			buf.WriteString(bytecode.Disassemble(sec.prog))
			buf.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "wordcount.disasm")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/bytecode -run DisassemblyGolden -update`): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("disassembly differs from %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
