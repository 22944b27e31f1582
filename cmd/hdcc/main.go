// Command hdcc is the HeteroDoop source-to-source compiler CLI: it reads
// a MiniC program annotated with `#pragma mapreduce` directives and prints
// the generated CUDA-flavoured kernel, the variable placement plan, and
// any privatization warnings — the front half of the paper's Figure 2.
//
// Usage:
//
//	hdcc [-plan] [-lint] [file.c]   (reads stdin when no file is given)
//	hdcc -demo                      (compiles the paper's Listing 1 wordcount)
//	hdcc -dump-bytecode file.c      (prints the register-bytecode disassembly)
//
// With -lint, hdcc also prints to stderr what hdlint prints for the same
// file; error-severity findings exit 2 (the kernel is still printed: the
// linter reads the translator's output and never changes it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/workload"
)

func main() {
	plan := flag.Bool("plan", false, "print the variable classification plan")
	demo := flag.Bool("demo", false, "compile the built-in wordcount mapper (paper Listing 1)")
	lint := flag.Bool("lint", false, "run the static-analysis suite and print diagnostics to stderr")
	dumpBC := flag.Bool("dump-bytecode", false, "print the register-bytecode disassembly of the host program and kernel program instead of CUDA")
	flag.Parse()

	var src, file string
	switch {
	case *demo:
		src, file = workload.WordcountMap, "wordcount-map.c"
	case flag.NArg() >= 1:
		file = flag.Arg(0)
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		file = "<stdin>"
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	compiled, err := compiler.CompileOpts(src, compiler.Options{File: file})
	if err != nil {
		fatal(err)
	}
	if *dumpBC {
		dumpBytecode(compiled)
		return
	}
	fmt.Print(compiled.CUDA)
	if *plan {
		fmt.Println("\n// Variable classification (Algorithm 1):")
		type entry struct {
			name  string
			class compiler.VarClass
		}
		var entries []entry
		for sym, cls := range compiled.Kernel.Plan {
			entries = append(entries, entry{sym.Name, cls})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		for _, e := range entries {
			fmt.Printf("//   %-16s %s\n", e.name, e.class)
		}
	}
	for _, w := range compiled.Kernel.Warnings {
		fmt.Fprintf(os.Stderr, "hdcc: warning: %s\n", w)
	}
	if *lint {
		diags := analysis.Lint(file, src)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d.String())
		}
		if analysis.HasErrors(diags) {
			os.Exit(2)
		}
	}
}

// dumpBytecode prints the register-bytecode disassembly of everything the
// compiler lowered: the host program and the GPU kernel program.
func dumpBytecode(compiled *compiler.Compiled) {
	sections := []struct {
		title string
		prog  *bytecode.Program
	}{
		{"host program", compiled.VM},
		{compiled.Kernel.Kind.String() + " kernel", compiled.KernelVM},
	}
	for _, s := range sections {
		fmt.Printf("== %s ==\n", s.title)
		fmt.Print(bytecode.Disassemble(s.prog))
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdcc:", err)
	os.Exit(1)
}
