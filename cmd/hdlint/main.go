// Command hdlint runs the HeteroDoop static-analysis suite over MiniC
// MapReduce programs: the directive verifier, dataflow checks, parallel
// legality, GPU safety on the translated kernel, and IO purity. The
// paper's translator trusts directives (§3.2: incorrect directives yield
// undefined behavior); hdlint makes those contracts checkable.
//
// Usage:
//
//	hdlint [file.c ...]        (reads stdin when no file is given)
//	hdlint -benchmarks         (lints the built-in Table-2 benchmark programs)
//	hdlint -codes              (prints the diagnostic catalog)
//
// Exit status: 2 if any error-severity diagnostic was reported, 1 for
// warnings, 0 when every input is clean (info-level findings are printed
// but do not affect the status).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/workload"
)

func main() {
	benchmarks := flag.Bool("benchmarks", false, "lint the built-in Table-2 benchmark programs")
	printCodes := flag.Bool("codes", false, "print the diagnostic catalog and exit")
	quiet := flag.Bool("q", false, "suppress per-file OK lines")
	flag.Parse()

	if *printCodes {
		fmt.Println("hdlint diagnostic catalog:")
		catalog := append([]analysis.CodeInfo(nil), analysis.Catalog...)
		sort.Slice(catalog, func(i, j int) bool { return catalog[i].Code < catalog[j].Code })
		for _, c := range catalog {
			fmt.Printf("  %s  %-7s  %s\n", c.Code, c.Severity, c.Summary)
		}
		return
	}

	worst := analysis.SevInfo
	lint := func(name, src string) {
		diags := analysis.Lint(name, src)
		for _, d := range diags {
			fmt.Println(d.String())
		}
		if sev := analysis.MaxSeverity(diags); sev > worst {
			worst = sev
		}
		if analysis.Clean(diags) && !*quiet {
			fmt.Printf("%s: OK (%d finding(s) at info level)\n", name, len(diags))
		}
	}

	switch {
	case *benchmarks:
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
				lint(fmt.Sprintf("%s-%s.c", b.Code, st.suffix), st.src)
			}
		}
	case flag.NArg() >= 1:
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			lint(path, string(data))
		}
	default:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		lint("<stdin>", string(data))
	}

	switch worst {
	case analysis.SevError:
		os.Exit(2)
	case analysis.SevWarning:
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdlint:", err)
	os.Exit(1)
}
