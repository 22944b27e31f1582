package bytecode

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// coreRun is everything one execution exposes.
type coreRun struct {
	out   string
	code  int
	err   string
	steps int64
	cost  interp.CountingSink
}

// runCore executes prog on the tree-walker (code == nil) or on the VM.
func runCore(prog *minic.Program, code *Program, stdin string, maxSteps int64) coreRun {
	var r coreRun
	var buf bytes.Buffer
	m := interp.New(prog, interp.Options{
		Stdin:    strings.NewReader(stdin),
		Stdout:   &buf,
		Cost:     &r.cost,
		MaxSteps: maxSteps,
	})
	var err error
	if code == nil {
		r.code, err = m.Run()
	} else {
		r.code, err = NewVM(m, code).Run()
	}
	if err != nil {
		r.err = err.Error()
	}
	r.out, r.steps = buf.String(), m.Steps()
	return r
}

// compareRuns asserts the parity contract between a walker run and a VM
// run: identical output, exit status, and error text, plus identical step
// counts and cost totals when neither errored (charge batching may differ
// at an abort point).
func compareRuns(t *testing.T, walker, vm coreRun) {
	t.Helper()
	if walker.out != vm.out {
		t.Fatalf("output mismatch:\nwalker: %q\nvm:     %q", walker.out, vm.out)
	}
	if walker.code != vm.code || walker.err != vm.err {
		t.Fatalf("outcome mismatch:\nwalker: exit %d, error %q\nvm:     exit %d, error %q", walker.code, walker.err, vm.code, vm.err)
	}
	if walker.err != "" {
		return
	}
	if walker.steps != vm.steps || walker.cost != vm.cost {
		t.Fatalf("cost mismatch:\nwalker: %d steps, %+v\nvm:     %d steps, %+v", walker.steps, walker.cost, vm.steps, vm.cost)
	}
}

// compileSrc parses and checks src, optionally optimizes it, and lowers it
// to bytecode.
func compileSrc(t *testing.T, src string, optimize bool) (*minic.Program, *Program) {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if optimize {
		ir.OptimizeProgram(prog)
	}
	code, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, code
}

// checkParity asserts the parity contract on src with empty stdin.
func checkParity(t *testing.T, src string) {
	t.Helper()
	checkParityIO(t, src, "")
}

func checkParityIO(t *testing.T, src, stdin string) {
	t.Helper()
	prog, code := compileSrc(t, src, false)
	compareRuns(t, runCore(prog, nil, stdin, 0), runCore(prog, code, stdin, 0))
}

const arithmeticSrc = `
int main() {
	int a = 6;
	int b = 7;
	int c = a * b + a - b;
	int d = c / 3;
	int e = c % 5;
	long big = 1;
	big = big << 40;
	printf("%d %d %d %ld\n", c, d, e, big);
	printf("%d %d %d\n", a & b, a | b, a ^ b);
	printf("%d %d\n", big >> 38, -a);
	printf("%d %d %d\n", !a, !0, ~a);
	return c;
}`

func TestParityArithmetic(t *testing.T) {
	checkParity(t, arithmeticSrc)
}

const floatsSrc = `
int main() {
	double x = 1.5;
	double y = 2.25;
	float f = 0.5;
	double z = x * y + f;
	printf("%f %f\n", z, x / y);
	printf("%d %d %d\n", x < y, x >= y, z != 0.0);
	printf("%f\n", -z);
	int i = 3;
	printf("%f\n", x + i);
	return 0;
}`

func TestParityFloats(t *testing.T) {
	checkParity(t, floatsSrc)
}

const controlFlowSrc = `
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 10; i++) {
		if (i % 2 == 0)
			sum += i;
		else
			sum -= 1;
	}
	int j = 0;
	while (j < 5) {
		sum = sum + j;
		j++;
		if (j == 3)
			continue;
		if (j == 4)
			break;
	}
	printf("%d %d %d\n", sum, i, j);
	return 0;
}`

func TestParityControlFlow(t *testing.T) {
	checkParity(t, controlFlowSrc)
}

const shortCircuitSrc = `
int noisy(int v) {
	printf("eval %d\n", v);
	return v;
}
int main() {
	int a = noisy(1) && noisy(0);
	int b = noisy(0) && noisy(5);
	int c = noisy(0) || noisy(2);
	int d = noisy(3) || noisy(4);
	printf("%d %d %d %d\n", a, b, c, d);
	int e = (a || b) ? noisy(7) : noisy(8);
	int f = a ? noisy(9) : noisy(10);
	printf("%d %d\n", e, f);
	return 0;
}`

func TestParityShortCircuit(t *testing.T) {
	checkParity(t, shortCircuitSrc)
}

// assignInConditionalSrc puts assignments and increments where a
// conditional region starts or switches arms: an assignment's value is
// its right-hand side, but its store comes after, and must run before the
// region branches.
const assignInConditionalSrc = `
int main() {
	int a = 1;
	int b = 2;
	int c = a ? (b = 3) : (a = 4);
	printf("%d %d %d\n", a, b, c);
	int z = 0;
	int d = (b = z) ? 1 : 2;
	printf("%d %d\n", b, d);
	int e = (b = z) && 1;
	int f = (a = z + 1) || 0;
	printf("%d %d %d %d\n", a, b, e, f);
	int k = 5;
	int g = (k++) ? k : 0;
	printf("%d %d\n", k, g);
	int arr[2];
	arr[0] = 5;
	int h = (arr[0] = 0) && 1;
	int m = 1 ? (arr[1] = 7) : 2;
	printf("%d %d %d %d\n", arr[0], arr[1], h, m);
	return 0;
}`

func TestParityAssignInConditional(t *testing.T) {
	checkParity(t, assignInConditionalSrc)
}

const callsAndRecursionSrc = `
int fib(int n) {
	if (n < 2)
		return n;
	return fib(n - 1) + fib(n - 2);
}
int twice(int x) { return x + x; }
int main() {
	printf("%d %d\n", fib(12), twice(fib(5)));
	return 0;
}`

func TestParityCallsAndRecursion(t *testing.T) {
	checkParity(t, callsAndRecursionSrc)
}

const arraysAndPointersSrc = `
int g[4];
int sumArr(int *p, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++)
		s += p[i];
	return s;
}
int main() {
	int a[10];
	int i;
	for (i = 0; i < 10; i++)
		a[i] = i * i;
	int *p = &a[2];
	p[1] = 100;
	*p = 50;
	(*p)++;
	p[1] += 7;
	g[0] = 1;
	g[3] = 4;
	printf("%d %d %d\n", sumArr(a, 10), sumArr(g, 4), *p);
	int m[3][4];
	m[1][2] = 42;
	m[2][3] = m[1][2] + 1;
	printf("%d %d\n", m[1][2], m[2][3]);
	return 0;
}`

func TestParityArraysAndPointers(t *testing.T) {
	checkParity(t, arraysAndPointersSrc)
}

const globalsAndStringsSrc = `
int counter = 3;
double scale = 1.5;
char *msg;
int bump() {
	counter++;
	return counter;
}
int main() {
	msg = "hello";
	printf("%s %d %d %f\n", msg, bump(), bump(), scale);
	printf("%c\n", msg[1]);
	return counter;
}`

func TestParityGlobalsAndStrings(t *testing.T) {
	checkParity(t, globalsAndStringsSrc)
}

const untrackedLocalsSrc = `
int main() {
	int x = 5;
	int *px = &x;
	x++;
	x += 10;
	--x;
	int old = x--;
	*px += 2;
	printf("%d %d %d\n", x, old, *px);
	double d = 1.0;
	double *pd = &d;
	d += 0.5;
	printf("%f %f\n", d, *pd);
	char buf[4];
	buf[0] = 65;
	buf[0]++;
	buf[1] = buf[0] + 1;
	printf("%c%c\n", buf[0], buf[1]);
	return 0;
}`

func TestParityUntrackedLocals(t *testing.T) {
	// Address-taken locals are demoted to objects; ++/-- and compound
	// assignment on them take the opaque-effect path.
	checkParity(t, untrackedLocalsSrc)
}

const conversionsSrc = `
int main() {
	char c = 300;
	int i = 1073741824;
	i = i * 4;
	float f = 0.1;
	double d = f;
	long l = d * 100;
	printf("%d %d %f %ld\n", c, i, d, l);
	int t = (int)(3.99);
	char t2 = (char)(65.5);
	printf("%d %d\n", t, t2);
	return 0;
}`

func TestParityConversions(t *testing.T) {
	checkParity(t, conversionsSrc)
}

const exitSrc = `
int helper() {
	printf("before\n");
	exit(7);
	printf("after\n");
	return 0;
}
int main() {
	helper();
	printf("unreached\n");
	return 0;
}`

func TestParityExit(t *testing.T) {
	checkParity(t, exitSrc)
}

const stdinRecordsSrc = `
int main() {
	char line[256];
	int total = 0;
	while (getRecord(line) > 0) {
		total += atoi(line);
	}
	printf("%d\n", total);
	return 0;
}`

func TestParityStdinRecords(t *testing.T) {
	checkParityIO(t, stdinRecordsSrc, "5\n10\n27\n")
}

var runtimeErrorCases = []struct{ name, src string }{
	{"div-zero", `
int main() {
	int z = 0;
	printf("start\n");
	int x = 10 / z;
	printf("%d\n", x);
	return 0;
}`},
	{"mod-zero", `
int main() {
	int z = 0;
	int x = 10 % z;
	return x;
}`},
	{"oob-load", `
int main() {
	int a[3];
	int i = 7;
	printf("start\n");
	return a[i];
}`},
	{"oob-store", `
int main() {
	int a[3];
	int i = -1;
	a[i] = 5;
	return 0;
}`},
	{"null-deref", `
int main() {
	int *p;
	return *p;
}`},
	{"null-store", `
int main() {
	int *p;
	*p = 3;
	return 0;
}`},
	{"float-div-zero", `
int main() {
	double z = 0.0;
	double x = 1.0 / z;
	printf("%f\n", x);
	return 0;
}`},
}

func TestParityRuntimeErrors(t *testing.T) {
	for _, tc := range runtimeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			checkParityIO(t, tc.src, "")
		})
	}
}

const stepBudgetSrc = `
int main() {
	int i = 0;
	while (1) {
		i++;
		if (i % 1000 == 0)
			printf("%d\n", i);
	}
	return 0;
}`

func TestParityStepBudget(t *testing.T) {
	prog, code := compileSrc(t, stepBudgetSrc, false)
	walker, vm := runCore(prog, nil, "", 5000), runCore(prog, code, "", 5000)
	if walker.err == "" || vm.err == "" {
		t.Fatalf("expected step budget exhaustion, walker %q vm %q", walker.err, vm.err)
	}
	compareRuns(t, walker, vm)
}

var optimizedSrcs = []string{assignInConditionalSrc, `
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 100; i++)
		sum += i * 2;
	printf("%d\n", sum);
	return 0;
}`, `
double sq(double x) { return x * x; }
int main() {
	double acc = 0.0;
	int i;
	for (i = 1; i <= 50; i++)
		acc += sq(i) / (i + 1);
	printf("%f\n", acc);
	return 0;
}`, signedZeroSrc}

// signedZeroSrc folds both zeros into constants. Float == treats them as
// equal, so a constant pool keyed by value, not by bits, would hand -0.0
// the slot of 0.0.
const signedZeroSrc = `
int main() {
	double a = 0.0;
	double b = -0.0;
	printf("%f\n", a);
	printf("%f %g\n", b, b);
	return 0;
}`

// TestParityOptimized runs sources through the AST optimizer first: the
// bytecode compiler consumes optimizer output in production.
func TestParityOptimized(t *testing.T) {
	for _, src := range optimizedSrcs {
		prog, code := compileSrc(t, src, true)
		compareRuns(t, runCore(prog, nil, "", 0), runCore(prog, code, "", 0))
	}
}

// TestFragmentParity compiles a loop body + condition as kernel fragments
// and compares against ExecIn/EvalIn on the same machine state.
func TestFragmentParity(t *testing.T) {
	src := `
int main() {
	int i;
	int n;
	int sum;
	while (i < n) {
		sum = sum + i * i;
		i = i + 1;
	}
	return 0;
}`
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var loop *minic.While
	for _, s := range prog.Func("main").Body.Stmts {
		if w, ok := s.(*minic.While); ok {
			loop = w
		}
	}
	if loop == nil {
		t.Fatal("no while loop found")
	}

	condProg, err := CompileFragmentExpr(loop.Cond)
	if err != nil {
		t.Fatal(err)
	}
	bodyProg, err := CompileFragmentStmt(loop.Body)
	if err != nil {
		t.Fatal(err)
	}

	run := func(useVM bool) (int64, interp.CountingSink, int64) {
		var sink interp.CountingSink
		m := interp.New(prog, interp.Options{Cost: &sink})
		fr := m.NewFrame()
		intT := loop.Cond.(*minic.Binary).L.Type()
		bind := func(name string, v int64) *interp.Object {
			var sym *minic.Symbol
			minic.WalkExprs(prog.Func("main").Body, func(e minic.Expr) bool {
				if id, ok := e.(*minic.Ident); ok && id.Name == name {
					sym = id.Sym
				}
				return true
			})
			obj := interp.NewObject(name, intT, 1, interp.SpaceRAM)
			obj.Cells[0] = interp.IntVal(v)
			fr.Bind(sym, obj)
			return obj
		}
		bind("i", 0)
		bind("n", 25)
		sumObj := bind("sum", 0)

		if useVM {
			cond, err := NewFragmentVM(m, condProg, fr.Object)
			if err != nil {
				t.Fatalf("cond fragment: %v", err)
			}
			body, err := NewFragmentVM(m, bodyProg, fr.Object)
			if err != nil {
				t.Fatalf("body fragment: %v", err)
			}
			for {
				v, _, err := cond.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, _, err := body.Run(); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for {
				v, err := m.EvalIn(fr, loop.Cond)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, err := m.ExecIn(fr, loop.Body); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sumObj.Cells[0].AsInt(), sink, m.Steps()
	}

	wSum, wSink, wSteps := run(false)
	vSum, vSink, vSteps := run(true)
	if wSum != vSum {
		t.Fatalf("sum mismatch: walker %d, vm %d", wSum, vSum)
	}
	if wSink != vSink {
		t.Fatalf("cost mismatch:\nwalker: %+v\nvm:     %+v", wSink, vSink)
	}
	if wSteps != vSteps {
		t.Fatalf("steps mismatch: walker %d, vm %d", wSteps, vSteps)
	}
}
