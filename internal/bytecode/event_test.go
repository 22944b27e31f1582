package bytecode

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/ir"
	"repro/internal/minic"
)

// costEvent is one call a run made on its cost sink.
type costEvent struct {
	kind  byte // 'o' Op, 'l' Load, 's' Store
	space interp.MemSpace
	width int
	n     int
}

// eventSink records every cost event in order. Under a float cost model,
// such as the GPU's, the order of events is part of the result.
type eventSink struct{ events []costEvent }

func (s *eventSink) Op(n int) { s.events = append(s.events, costEvent{kind: 'o', n: n}) }

func (s *eventSink) Load(sp interp.MemSpace, w int) {
	s.events = append(s.events, costEvent{kind: 'l', space: sp, width: w})
}

func (s *eventSink) Store(sp interp.MemSpace, w int) {
	s.events = append(s.events, costEvent{kind: 's', space: sp, width: w})
}

// eventRun is everything one execution exposes, with its cost events.
type eventRun struct {
	out    string
	code   int
	err    string
	steps  int64
	events []costEvent
}

// compilePerEvent lowers every function of prog with the per-event
// charge discipline that production uses only for a kernel program's
// callees, and its <init> too, so that the whole run's event sequence is
// the walker's.
func compilePerEvent(prog *minic.Program) (*Program, error) {
	b := newBuilder(perEvent)
	for _, fn := range prog.Funcs {
		if err := b.addFn(fn, nil, nil, nil, nil); err != nil {
			return nil, err
		}
	}
	if err := b.addInit(prog); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// runEvents executes prog on the tree-walker (code == nil) or on the VM,
// recording every cost event.
func runEvents(prog *minic.Program, code *Program, stdin string, maxSteps int64) eventRun {
	var r eventRun
	var sink eventSink
	var buf bytes.Buffer
	m := interp.New(prog, interp.Options{
		Stdin:    strings.NewReader(stdin),
		Stdout:   &buf,
		Cost:     &sink,
		MaxSteps: maxSteps,
	})
	var err error
	if code == nil {
		r.code, err = walker.Run(m)
	} else {
		r.code, err = NewVM(m, code).Run()
	}
	if err != nil {
		r.err = err.Error()
	}
	r.out, r.steps, r.events = buf.String(), m.Steps(), sink.events
	return r
}

// compareEvents asserts the per-event contract: the walker's output, exit
// status, error text and step count, and its exact cost event sequence,
// up to and including an abort.
func compareEvents(t *testing.T, walker, vm eventRun) {
	t.Helper()
	if walker.out != vm.out {
		t.Fatalf("output mismatch:\nwalker: %q\nvm:     %q", walker.out, vm.out)
	}
	if walker.code != vm.code || walker.err != vm.err {
		t.Fatalf("outcome mismatch:\nwalker: exit %d, error %q\nvm:     exit %d, error %q", walker.code, walker.err, vm.code, vm.err)
	}
	if walker.steps != vm.steps {
		t.Fatalf("steps mismatch: walker %d, vm %d", walker.steps, vm.steps)
	}
	for i := 0; i < len(walker.events) && i < len(vm.events); i++ {
		if walker.events[i] != vm.events[i] {
			t.Fatalf("cost event %d of %d/%d differs: walker %+v, vm %+v", i, len(walker.events), len(vm.events), walker.events[i], vm.events[i])
		}
	}
	if len(walker.events) != len(vm.events) {
		t.Fatalf("cost event count: walker %d, vm %d", len(walker.events), len(vm.events))
	}
}

// checkEventParity compiles src with per-event charges, optimized first
// when optimize is set, and requires the walker's exact run on stdin.
// maxSteps 0 keeps the default budget.
func checkEventParity(t *testing.T, src, stdin string, maxSteps int64, optimize bool) {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if optimize {
		ir.OptimizeProgram(prog)
	}
	code, err := compilePerEvent(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	compareEvents(t, runEvents(prog, nil, stdin, maxSteps), runEvents(prog, code, stdin, maxSteps))
}

// initializerCases exercise file-scope initializers, which <init> runs
// with folded charges in every program. err is the error the run ends
// with, "" for none.
var initializerCases = []struct{ name, src, err string }{
	{"earlier-global", `
int a = 3;
int b = a * 2 + 1, c = b - a;
char *s = "xy";
int main() { printf("%d %d %d %s\n", a, b, c, s); return b; }`, ""},
	{"builtin", `
double r = sqrt(2.0);
int n = strlen("abcd");
int main() { printf("%f %d\n", r, n); return n; }`, ""},
	{"program-function", `
int base = 4;
int sq(int x) { return x * x + base; }
int s = sq(7);
int t[3];
int main() { t[1] = s; printf("%d %d\n", s, t[1] + t[0]); return 0; }`, ""},
	{"later-global", `
int peek() { return later + 1; }
int early = peek();
int later = 5;
int main() { return early; }`, `interp: unresolved symbol "later"`},
	{"divide-by-zero", `
int zero = 0;
int q = 10 / zero;
int main() { printf("unreached\n"); return q; }`, "interp: integer division by zero"},
	{"unspecified-array", `
int ok = printf("a");
int bad[] = printf("b");
int main() { return 0; }`, `interp: array "bad" has unspecified length`},
}

// TestPerEventParity runs the parity corpus, the runtime error cases, the
// initializer cases and the example mappers under per-event charges. The
// initializer cases also run as whole programs, with folded charges.
func TestPerEventParity(t *testing.T) {
	type tc struct {
		name, src, stdin string
		maxSteps         int64
		optimize         bool
	}
	cases := []tc{
		{"arithmetic", arithmeticSrc, "", 0, false},
		{"floats", floatsSrc, "", 0, false},
		{"control-flow", controlFlowSrc, "", 0, false},
		{"short-circuit", shortCircuitSrc, "", 0, false},
		{"assign-in-conditional", assignInConditionalSrc, "", 0, false},
		{"calls-and-recursion", callsAndRecursionSrc, "", 0, false},
		{"arrays-and-pointers", arraysAndPointersSrc, "", 0, false},
		{"globals-and-strings", globalsAndStringsSrc, "", 0, false},
		{"untracked-locals", untrackedLocalsSrc, "", 0, false},
		{"conversions", conversionsSrc, "", 0, false},
		{"exit", exitSrc, "", 0, false},
		{"stdin-records", stdinRecordsSrc, "5\n10\n27\n", 0, false},
		{"step-budget", stepBudgetSrc, "", 5000, false},
		{"forwarding", forwardingSrc, "", 0, false},
		{"forwarding-optimized", forwardingSrc, "", 0, true},
		{"store-targets", storeTargetsSrc, "", 0, false},
	}
	for _, exit := range []string{"if (i > 3) break;", "if (i < 3) continue; if (i > 5) break;",
		"if (i > 3) return i;", `if (i > 3) exit("done");`, ""} {
		cases = append(cases, tc{"infinite-for/" + exit, strings.Replace(infiniteForSrc, "EXIT", exit, 1), "", 5000, false})
	}
	for i, src := range optimizedSrcs {
		cases = append(cases, tc{"optimized/" + string(rune('a'+i)), src, "", 0, true})
	}
	for _, ps := range paramSrcs {
		cases = append(cases, tc{"params/" + ps.name, ps.src, ps.stdin, 0, true})
	}
	for _, rc := range runtimeErrorCases {
		cases = append(cases, tc{"error/" + rc.name, rc.src, "", 0, false})
	}
	for _, tt := range tightCases {
		cases = append(cases, tc{"tight/" + tt.name, tt.src, "", tt.maxSteps, false},
			tc{"tight-optimized/" + tt.name, tt.src, "", tt.maxSteps, true})
	}
	for _, ic := range initializerCases {
		cases = append(cases, tc{"init/" + ic.name, ic.src, "", 0, false})
		t.Run("init-whole/"+ic.name, func(t *testing.T) {
			prog, code := compileSrc(t, ic.src, false)
			walker := runCore(prog, nil, "", 0)
			if walker.err != ic.err {
				t.Fatalf("walker ended with error %q, want %q", walker.err, ic.err)
			}
			compareRuns(t, walker, runCore(prog, code, "", 0))
		})
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no example sources")
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const stdin = "the quick brown fox\n17 4.5 -3 8 1,2,3\nzz top 9\n"
		cases = append(cases, tc{"example/" + filepath.Base(path), string(src), stdin, 0, true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkEventParity(t, c.src, c.stdin, c.maxSteps, c.optimize)
		})
	}
}

// exitInOperandStmts run a call that never returns (helper calls exit())
// inside an operand. The walker charges an expression's entry op before
// its operands, so the ops charged when exit() stops the run include
// those of every enclosing expression.
var exitInOperandStmts = []string{
	`helper()%3;`,
	`int x = helper()+1;`,
	`int x = 1+helper();`,
	`putchar(helper());`,
	`if (helper() == 2) putchar(65);`,
	`int x = (helper()+1)*2;`,
	`int x; x = helper();`,
	`helper()%("");`,
	`int a[2]; a[helper()] = 1;`,
	`int x = 1 && helper() ? 2 : 3;`,
}

// exitInOperandSrc wraps one of exitInOperandStmts into a program.
func exitInOperandSrc(stmt string) string {
	return `int helper() { exit(""); } int main() { ` + stmt + ` return 0; }`
}

// TestPerEventExitInOperand requires the walker's exact event sequence
// when exit() stops a run inside an operand.
func TestPerEventExitInOperand(t *testing.T) {
	for _, stmt := range exitInOperandStmts {
		t.Run(stmt, func(t *testing.T) {
			checkEventParity(t, exitInOperandSrc(stmt), "", 0, false)
		})
	}
}
