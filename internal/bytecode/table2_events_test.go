package bytecode_test

import (
	"bytes"
	"fmt"
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

// TestFoldedTrafficTable2 checks the charge totals a CountingSink takes
// against per-access charging: every stage program of the eight Table-2
// benchmarks, as written and optimized, runs on a CountingSink, to which
// each charge adds its Loads and Stores totals, and on a sink that
// forwards to one without being one, which takes each access of the
// charge's traffic list as one Load or Store call; both runs must give
// the same output, steps and totals. A CPU machine places every symbol in
// RAM; the second machine spreads them over the memory spaces. Each stage
// reads the sorted output of the one before it, as the CPU path feeds it.
func TestFoldedTrafficTable2(t *testing.T) {
	spread := func(sym *minic.Symbol) interp.MemSpace { return interp.MemSpace(len(sym.Name) % 7) }
	lists := 0
	for _, b := range workload.All() {
		input := string(b.Gen(5, 2<<10))
		for _, src := range []string{b.Job.MapSrc, b.Job.CombineSrc, b.Job.ReduceSrc} {
			if src == "" {
				continue
			}
			for _, optimize := range []bool{false, true} {
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
				for _, c := range code.Charges {
					if c.Traffic != 0 {
						lists++
					}
				}
				for _, spaceFor := range []func(*minic.Symbol) interp.MemSpace{nil, spread} {
					var totals, each interp.CountingSink
					folded := runTotals(t, prog, code, input, &totals, spaceFor)
					forwarded := runTotals(t, prog, code, input, forwardSink{&each}, spaceFor)
					if folded != forwarded || totals != each {
						t.Fatalf("%s (optimize %v): totals %+v after %q, per access %+v after %q",
							b.Code, optimize, totals, folded, each, forwarded)
					}
				}
			}
			input = sortedOutput(t, src, input)
		}
	}
	if lists == 0 {
		t.Fatal("no charge carries traffic")
	}
}

// forwardSink passes every cost event on to a CountingSink without being
// one, so the VM charges each access of a charge's traffic list.
type forwardSink struct{ c *interp.CountingSink }

func (s forwardSink) Op(n int)                        { s.c.Op(n) }
func (s forwardSink) Load(sp interp.MemSpace, w int)  { s.c.Load(sp, w) }
func (s forwardSink) Store(sp interp.MemSpace, w int) { s.c.Store(sp, w) }

// runTotals runs code on stdin against cost, with storage placed by
// spaceFor, and returns its output, exit status, error and steps.
func runTotals(t *testing.T, prog *minic.Program, code *bytecode.Program, stdin string, cost interp.CostSink, spaceFor func(*minic.Symbol) interp.MemSpace) string {
	t.Helper()
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdin: strings.NewReader(stdin), Stdout: &out, Cost: cost, SpaceFor: spaceFor})
	status, err := bytecode.NewVM(m, code).Run()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s exit %d steps %d", out.String(), status, m.Steps())
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
