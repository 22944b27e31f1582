package bytecode_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/minic"
	"repro/internal/workload"
)

// TestPerEventParityTable2 runs the eight Table-2 map, combine and reduce
// sources under per-event charges on small generated inputs: each stage
// reads the sorted output of the one before it, as the CPU path feeds it.
func TestPerEventParityTable2(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Code, func(t *testing.T) {
			input := string(b.Gen(5, 2<<10))
			stages := []struct{ name, src string }{
				{"map", b.Job.MapSrc}, {"combine", b.Job.CombineSrc}, {"reduce", b.Job.ReduceSrc},
			}
			for _, st := range stages {
				if st.src == "" {
					continue
				}
				t.Run(st.name, func(t *testing.T) {
					bytecode.CheckEventParity(t, st.src, input, 0, true)
				})
				input = sortedOutput(t, st.src, input)
			}
		})
	}
}

// sortedOutput runs src on the walker and returns its output lines sorted,
// the next stage's input.
func sortedOutput(t *testing.T, src, stdin string) string {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdin: strings.NewReader(stdin), Stdout: &out})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}
