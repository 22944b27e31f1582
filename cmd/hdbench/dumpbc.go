package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/mr"
	"repro/internal/workload"
)

// bcSection is one disassembly section of a benchmark dump.
type bcSection struct {
	title string
	prog  *bytecode.Program
}

// dumpBytecode compiles one built-in benchmark by code (WC, BS, ...) and
// writes the register-bytecode disassembly of every interpreted stage: the
// map and combine host programs, the reduce filter, and the GPU kernel
// programs the bytecode compiler produced for the map/combine regions.
func dumpBytecode(w io.Writer, code string) error {
	b := workload.ByCode(strings.ToUpper(code))
	if b == nil {
		return fmt.Errorf("hdbench: unknown benchmark %q (try WC, BS, LR, ...)", code)
	}
	cj, err := mr.CompileJob(b.JobFor(1))
	if err != nil {
		return err
	}
	sections := []bcSection{
		{"map host program", cj.MapC.VM},
		{"map kernel", cj.MapC.KernelVM},
	}
	if cj.CombineC != nil {
		sections = append(sections,
			bcSection{"combine host program", cj.CombineC.VM},
			bcSection{"combine kernel", cj.CombineC.KernelVM})
	}
	if cj.ReduceF != nil {
		sections = append(sections, bcSection{"reduce filter", cj.ReduceF.Code})
	}
	for _, s := range sections {
		if s.prog == nil {
			continue
		}
		fmt.Fprintf(w, "== %s: %s ==\n", b.Code, s.title)
		if _, err := io.WriteString(w, bytecode.Disassemble(s.prog)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
