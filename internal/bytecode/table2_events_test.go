package bytecode_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/ir"
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

// TestFoldedTrafficTable2 checks the charge vectors a CountingSink takes
// against per-access charging: for every stage program of the eight
// Table-2 benchmarks, as written and optimized, each Traffic list folded
// over the image's symbols must give the totals of its accesses charged
// one Load or Store at a time. A CPU machine places every symbol in RAM;
// the second machine spreads them over the memory spaces, so that
// vectors fold several.
func TestFoldedTrafficTable2(t *testing.T) {
	spread := func(sym *minic.Symbol) interp.MemSpace { return interp.MemSpace(len(sym.Name) % 7) }
	lists := 0
	for _, b := range workload.All() {
		for _, src := range []string{b.Job.MapSrc, b.Job.CombineSrc, b.Job.ReduceSrc} {
			for _, optimize := range []bool{false, true} {
				if src == "" {
					continue
				}
				prog, err := minic.ParseAndCheck(src)
				if err != nil {
					t.Fatal(err)
				}
				if optimize {
					ir.OptimizeProgram(prog)
				}
				code, err := bytecode.Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				for _, spaceFor := range []func(*minic.Symbol) interp.MemSpace{nil, spread} {
					m := interp.New(prog, interp.Options{Cost: &interp.CountingSink{}, SpaceFor: spaceFor})
					folded, each := bytecode.TrafficTotals(m, code)
					for i := range folded {
						if folded[i] != each[i] {
							t.Fatalf("%s: traffic list %d: folded %+v, per access %+v", b.Code, i, folded[i], each[i])
						}
					}
					lists += len(folded)
				}
			}
		}
	}
	if lists == 0 {
		t.Fatal("no traffic lists")
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
