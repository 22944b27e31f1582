package main

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// runOptReport prints one row of per-pass rewrite counts per optimized
// benchmark program (see eachOptStats), their TOTAL, and the cumulative
// cost table.
func runOptReport(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "program\ttarget\tfold\tdse\tdeadinit\tlicm\tnodes")
	total := &ir.Stats{}
	err := eachOptStats(func(name, target string, st *ir.Stats) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d->%d\n",
			name, target, st.Folded, st.Stores, st.Inits, st.LICM, st.NodesBefore, st.NodesAfter)
		total.Add(st)
		total.NodesBefore += st.NodesBefore
		total.NodesAfter += st.NodesAfter
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "TOTAL\t\t%d\t%d\t%d\t%d\t%d->%d\n",
		total.Folded, total.Stores, total.Inits, total.LICM, total.NodesBefore, total.NodesAfter)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return runOptCost(w)
}

// eachOptStats compiles every benchmark stage program with the SSA
// optimizer enabled and passes each optimized program's stats to row:
// map/combine stages yield a host row and a kernel row (the translated GPU
// program is optimized separately), reduce stages a single host row,
// matching what internal/mr actually executes.
func eachOptStats(row func(name, target string, st *ir.Stats)) error {
	for _, b := range workload.All() {
		stages := []struct{ suffix, src string }{
			{"map", b.Job.MapSrc},
			{"combine", b.Job.CombineSrc},
			{"reduce", b.Job.ReduceSrc},
		}
		for _, st := range stages {
			if st.src == "" {
				continue
			}
			name := fmt.Sprintf("%s-%s.c", b.Code, st.suffix)
			if st.suffix == "reduce" {
				// Reduce stages are plain streaming programs (no pragma);
				// the engine optimizes the parsed program directly.
				prog, err := minic.ParseAndCheckFile(name, st.src)
				if err != nil {
					return err
				}
				row(name, "host", ir.OptimizeProgram(prog))
				continue
			}
			c, err := compiler.CompileOpts(st.src, compiler.Options{File: name})
			if err != nil {
				return err
			}
			row(name, "host", c.HostOpt)
			row(name, "kernel", c.KernelOpt)
		}
	}
	return nil
}

// optCostInput sizes the per-benchmark sample fed to the interpreter for
// the cumulative cost table; small enough to keep `make opt-report`
// interactive, large enough that the per-record loop dominates.
const optCostInput = 8 << 10

// runOptCost prints the measured interpreter cost (CountingSink ops) of
// every benchmark map stage under cumulative pass sets, i.e. each column
// adds one pass to the ones left of it. This is the dynamic counterpart
// of the rewrite-count table: it shows what each pass actually buys on
// the per-record hot path.
func runOptCost(w io.Writer) error {
	sets := []struct {
		name string
		mask ir.Pass
	}{
		{"none", 0},
		{"+fold", ir.PassFold},
		{"+dse", ir.PassFold | ir.PassDSE},
		{"+licm", ir.AllPasses},
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprint(tw, "map stage\tinput")
	for _, s := range sets {
		fmt.Fprintf(tw, "\t%s", s.name)
	}
	fmt.Fprintln(tw)
	for _, b := range workload.All() {
		input := b.Gen(1, optCostInput)
		name := fmt.Sprintf("%s-map.c", b.Code)
		var base int64
		fmt.Fprintf(tw, "%s\t%dB", name, len(input))
		for _, s := range sets {
			ops, err := interpCost(name, b.Job.MapSrc, s.mask, input)
			if err != nil {
				return err
			}
			if s.mask == 0 {
				base = ops
				fmt.Fprintf(tw, "\t%d ops", ops)
				continue
			}
			fmt.Fprintf(tw, "\t%+.1f%%", 100*float64(ops-base)/float64(base))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// interpCost parses src fresh (optimization mutates the AST in place),
// optimizes with the given pass mask, runs it over input on the bytecode
// VM, and returns the counted op cost.
func interpCost(name, src string, mask ir.Pass, input []byte) (int64, error) {
	prog, err := minic.ParseAndCheckFile(name, src)
	if err != nil {
		return 0, err
	}
	if mask != 0 {
		ir.OptimizeSelected(prog, mask)
	}
	code, err := bytecode.Compile(prog)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	cost := &interp.CountingSink{}
	m := interp.New(prog, interp.Options{
		Stdin:  bytes.NewReader(input),
		Stdout: io.Discard,
		Cost:   cost,
	})
	if _, err := bytecode.NewVM(m, code).Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return cost.Ops, nil
}
