package ir

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minic"
)

type namedProg struct {
	name string
	prog *minic.Program
}

// reuseCorpus parses the MiniC programs the optimizer reuse tests run
// over: every example mapper under examples/minic, read from disk because
// ir's tests cannot import internal/workload, and every raw-string MiniC
// program in this package's optimizer tests.
func reuseCorpus(t *testing.T) []namedProg {
	t.Helper()
	var progs []namedProg
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sources: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minic.ParseAndCheckFile(filepath.Base(path), string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, namedProg{filepath.Base(path), prog})
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "opt_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
			return true
		}
		src, err := strconv.Unquote(lit.Value)
		if err != nil || !strings.Contains(src, "main(") {
			return true
		}
		name := fmt.Sprintf("opt_test.go:%d", fset.Position(lit.Pos()).Line)
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, namedProg{name, prog})
		return true
	})
	if len(progs) < len(files)+10 {
		t.Fatalf("corpus has only %d programs", len(progs))
	}
	return progs
}

// bodyShape renders a function body's structure: the kind of every
// statement and the exprKey of every expression, in walk order. Every
// rewrite an optimizer pass makes changes it.
func bodyShape(fn *minic.FuncDecl) string {
	var b strings.Builder
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		fmt.Fprintf(&b, "%T\n", s)
		minic.StmtExprs(s, func(top minic.Expr) {
			minic.Inspect(top, func(e minic.Expr) bool {
				b.WriteString(exprKey(e))
				b.WriteByte('\n')
				return true
			})
		})
	})
	return b.String()
}

// TestPassesReportEveryRewrite pins the invariant the optimizer's reuse
// of SSA, SCCP and the AST index rests on: a pass that reports no rewrite
// has left the AST exactly as it found it. It replays optimizeFunc's
// rounds pass by pass and compares the body's shape around every pass
// that returns 0.
func TestPassesReportEveryRewrite(t *testing.T) {
	for _, c := range reuseCorpus(t) {
		temp := 0
		for _, fn := range c.prog.Funcs {
			if fn.Body == nil {
				continue
			}
			o := &optimizer{fn: fn, st: &Stats{}, temp: &temp, stale: true}
			passes := []struct {
				name string
				run  func() int
			}{
				{"fold", o.foldPass},
				{"dse", o.dsePass},
				{"licm", o.licmPass},
			}
			for round := 0; round < maxRounds; round++ {
				n := 0
				for _, p := range passes {
					before := bodyShape(fn)
					k := o.rewrote(p.run())
					if k == 0 && bodyShape(fn) != before {
						t.Errorf("%s: %s: round %d: %s pass reported no rewrite but changed the body",
							c.name, fn.Name, round+1, p.name)
					}
					n += k
				}
				if n == 0 {
					break
				}
			}
		}
	}
}

// TestOptimizeReusesSSA checks that a function the passes leave unchanged
// is lowered (which indexes it) and solved once: optimizing an already
// optimized program costs less than twice the allocations of one Build
// and Run per function. The bound sits between one lowering plus the
// passes' own work (about 1.0-1.2x) and a lowering per pass (about 2.8x).
func TestOptimizeReusesSSA(t *testing.T) {
	for _, c := range reuseCorpus(t) {
		name, prog := c.name, c.prog
		OptimizeProgram(prog)
		if st := OptimizeProgram(prog); st.Changed() {
			t.Fatalf("%s: a second optimization still rewrote: %v", name, st)
		}
		once := testing.AllocsPerRun(5, func() {
			for _, fn := range prog.Funcs {
				if fn.Body != nil {
					Run(Build(fn))
				}
			}
		})
		again := testing.AllocsPerRun(5, func() { OptimizeProgram(prog) })
		if again >= 2*once {
			t.Errorf("%s: re-optimizing allocates %.0f objects, %.1fx one lowering's %.0f (want < 2x)",
				name, again, again/once, once)
		}
	}
}
