package bytecode

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Resource guards keep every fuzz input cheap: the step budget bounds
// time, and the cell cap bounds the arrays a run can allocate (a
// recursive function multiplies its locals by the call depth the budget
// allows). malloc/calloc and huge printf precisions allocate from
// runtime values the guards cannot see, so sources using them are
// skipped.
const (
	fuzzMaxSteps   = 10000
	fuzzMaxCells   = 1200
	fuzzMaxStdin   = 4096
	fuzzMaxSrcSize = 16 << 10
)

var hugePrecision = regexp.MustCompile(`\.[0-9]{5}`)

// arrayCells sums the cells of every array the program declares; a
// length past the cap, or one that overflows, counts as past the cap.
func arrayCells(prog *minic.Program) int {
	total := 0
	count := func(s minic.Stmt) {
		d, ok := s.(*minic.DeclStmt)
		if !ok {
			return
		}
		for _, dc := range d.Decls {
			if dc.Type == nil || dc.Type.Kind != minic.TypeArray {
				continue
			}
			n, _ := interp.FlattenArray(dc.Type)
			if n < 0 || n > fuzzMaxCells {
				n = fuzzMaxCells + 1
			}
			total += n
		}
	}
	for _, g := range prog.Globals {
		count(g)
	}
	for _, fn := range prog.Funcs {
		minic.WalkStmts(fn.Body, count)
	}
	return total
}

// FuzzVMParity is the bytecode compiler's robustness contract. Any source
// that parses and checks must optimize and compile without panicking —
// whole, and every while loop's condition and body as a kernel program:
// a construct the compiler cannot lower is an error, never a crash. A
// program that compiles must then run identically on the VM and on the
// tree-walker under a small step budget. Compiled with per-event charges,
// it must give the walker's output, exit status, error text, step count
// and exact cost event sequence. Compiled with batched charges, it must
// give the same output, exit status, and error text, and, when neither run
// errors, the same step count and cost totals. These runs execute the
// optimized program, so the unoptimized program then runs on the walker
// too and must give the same output, exit status, and error text (unless
// a run hit the step budget).
func FuzzVMParity(f *testing.F) {
	const stdin = "the quick brown fox\n17 4.5 -3\nzz top 9\n"
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.c"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), stdin)
	}
	for _, src := range []string{arithmeticSrc, floatsSrc, controlFlowSrc, shortCircuitSrc,
		callsAndRecursionSrc, arraysAndPointersSrc, globalsAndStringsSrc, untrackedLocalsSrc,
		conversionsSrc, exitSrc, stdinRecordsSrc, stepBudgetSrc, forwardingSrc} {
		f.Add(src, stdin)
	}
	for _, stmt := range exitInOperandStmts {
		f.Add(exitInOperandSrc(stmt), "")
	}
	for _, tc := range runtimeErrorCases {
		f.Add(tc.src, "")
	}
	for _, tc := range initializerCases {
		f.Add(tc.src, "")
	}
	for _, src := range optimizedSrcs {
		f.Add(src, "")
	}
	for _, ps := range paramSrcs {
		f.Add(ps.src, ps.stdin)
	}
	for _, tc := range tightCases {
		f.Add(tc.src, "")
	}
	for _, tc := range fusedCases {
		f.Add(tc.src, "")
	}

	f.Fuzz(func(t *testing.T, src, stdin string) {
		if len(src) > fuzzMaxSrcSize || len(stdin) > fuzzMaxStdin {
			return
		}
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			return
		}
		ir.OptimizeProgram(prog)
		for _, fn := range prog.Funcs {
			minic.WalkStmts(fn.Body, func(s minic.Stmt) {
				if w, ok := s.(*minic.While); ok {
					_, _ = CompileKernel(prog, nil, w.Cond, w.Body)
				}
			})
		}
		code, err := Compile(prog)
		if err != nil {
			return
		}
		if strings.Contains(src, "alloc") || hugePrecision.MatchString(src) || arrayCells(prog) > fuzzMaxCells {
			return
		}
		perEvent, err := compilePerEvent(prog)
		if err != nil {
			t.Fatalf("per-event compile failed where the batched one did not: %v", err)
		}
		compareEvents(t, runEvents(prog, nil, stdin, fuzzMaxSteps), runEvents(prog, perEvent, stdin, fuzzMaxSteps))
		walker := runCore(prog, nil, stdin, fuzzMaxSteps)
		compareRuns(t, walker, runCore(prog, code, stdin, fuzzMaxSteps))
		unopt, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		compareOptimized(t, runCore(unopt, nil, stdin, fuzzMaxSteps), walker)
	})
}
