package bytecode

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/walker"
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
		r.code, err = walker.Run(m)
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

// compareOptimized asserts that the optimizer kept a program's observable
// behaviour: an unoptimized run and an optimized one give the same output,
// exit status, and error text. Step counts legitimately differ, so a run
// that hit the step budget proves nothing and is skipped.
func compareOptimized(t *testing.T, unopt, opt coreRun) {
	t.Helper()
	if budget := interp.ErrMaxSteps.Error(); unopt.err == budget || opt.err == budget {
		return
	}
	if unopt.out != opt.out || unopt.code != opt.code || unopt.err != opt.err {
		t.Fatalf("optimization changed behaviour:\nunoptimized: %q, exit %d, error %q\noptimized:   %q, exit %d, error %q",
			unopt.out, unopt.code, unopt.err, opt.out, opt.code, opt.err)
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
	// The walker checks a store's target before it runs the right-hand
	// side, so neither program prints.
	{"null-store-before-rhs", `
int main() {
	int *p;
	*p = printf("x");
	return 0;
}`},
	{"null-index-before-rhs", `
int main() {
	int *p;
	p[0] = printf("y");
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

// infiniteForSrc is a for(;;) loop, whose header jumps straight to the
// body; EXIT is replaced by the way the program leaves it.
const infiniteForSrc = `
int main() {
	int i = 0;
	for (;;) {
		i++;
		EXIT
		printf("%d\n", i);
	}
	return 0;
}`

func TestParityInfiniteFor(t *testing.T) {
	for _, tc := range []struct{ name, exit string }{
		{"break", "if (i > 3) break;"},
		{"continue", "if (i < 3) continue; if (i > 5) break;"},
		{"return", "if (i > 3) return i;"},
		{"exit", `if (i > 3) exit("done");`},
		{"budget", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, code := compileSrc(t, strings.Replace(infiniteForSrc, "EXIT", tc.exit, 1), false)
			walker, vm := runCore(prog, nil, "", 5000), runCore(prog, code, "", 5000)
			if (walker.err != "") != (tc.name == "budget") {
				t.Fatalf("walker error %q", walker.err)
			}
			compareRuns(t, walker, vm)
		})
	}
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
}`, signedZeroSrc, signedZeroMergeSrc, storeTargetsSrc}

// storeTargetsSrc stores through an index or a pointer whose right-hand
// side writes the scratch register that holds the checked target address
// (a nested indexed store, an increment through an index) or redefines
// the index itself. g is a global, so g = 2 stores to memory.
const storeTargetsSrc = `
int g = 1;
int main() {
	int a[4];
	int b[4];
	int i = 1;
	int j = 2;
	int k = 0;
	int x = 5;
	int *p = &x;
	a[i] = b[j] = x;
	printf("%d %d\n", a[1], b[2]);
	a[i] = (i = 3);
	printf("%d %d %d\n", a[1], a[3], i);
	a[g] = (g = 2);
	printf("%d %d %d\n", a[1], a[2], g);
	a[k] = 9;
	*p = a[k]++;
	printf("%d %d\n", x, a[0]);
	a[i] += (a[j] = 2);
	printf("%d %d\n", a[3], a[2]);
	*p += (b[k] = 4);
	printf("%d %d\n", x, b[0]);
	return 0;
}`

// TestParityStoreTargets runs storeTargetsSrc as written; TestParityOptimized
// and the per-event corpus run it optimized.
func TestParityStoreTargets(t *testing.T) {
	checkParity(t, storeTargetsSrc)
}

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

// signedZeroMergeSrc merges 0.0 and -0.0 at a phi and at a ?:. Neither is
// a constant, so an optimizer lattice comparing floats by value rather
// than by bits would fold both (on empty stdin it prints "0 -0").
const signedZeroMergeSrc = `
int main() {
	int c = getchar();
	double x;
	if (c < 0) x = 0.0; else x = -0.0;
	double y = c >= 0 ? 0.0 : -0.0;
	printf("%g %g\n", x, y);
	return 0;
}`

// paramSrcs call helpers with demoted (pointer, or address-taken)
// parameters, whose objects a pooled frame keeps from call to call unless
// the helper takes the parameter's address (Param.Kept); each runs on its
// stdin.
var paramSrcs = []struct{ name, src, stdin string }{
	// count and fill are called in a loop and advance their pointer
	// parameters: an assignment writes a kept object's cell, and src++
	// takes src's address, so src gets a fresh object per call.
	{"loop", `
int count(char *s, char c) {
	int n = 0;
	while (*s) {
		if (*s == c) n++;
		s = s + 1;
	}
	return n;
}
void fill(char *dst, char *src, int k) {
	while (k > 0 && *src) {
		*dst = *src;
		dst = dst + 1; src++; k--;
	}
	*dst = '\0';
}
int main() {
	char buf[16];
	int i;
	for (i = 0; i < 8; i++) {
		fill(buf, "abcabcab", i);
		printf("%d %d %s\n", i, count(buf, 'a') + count(buf, 'b'), buf);
	}
	return 0;
}`, ""},
	// rev reads s after its recursive call returns, so every active call
	// needs its own parameter objects.
	{"recursive", `
int rev(char *s, char *out, int n) {
	if (*s == '\0') return n;
	int k = rev(s + 1, out, n);
	out[k] = *s;
	return k + 1;
}
int main() {
	char out[16];
	int k = rev("recursion", out, 0);
	out[k] = '\0';
	printf("%d %s\n", k, out);
	k = rev("ab", out, 0);
	printf("%d %s\n", k, out);
	return 0;
}`, ""},
	// keep stores &s and &x on every call, and main reads them back after
	// the loop: each call's objects must stay distinct.
	{"address-taken", `
char **saved[4];
int *ints[4];
void keep(char *s, int x, int i) {
	saved[i] = &s;
	ints[i] = &x;
}
int main() {
	char *words[4];
	int i;
	words[0] = "zero"; words[1] = "one"; words[2] = "two"; words[3] = "three";
	for (i = 0; i < 4; i++)
		keep(words[i], i * 10, i);
	for (i = 0; i < 4; i++)
		printf("%s %d\n", *saved[i], *ints[i]);
	return 0;
}`, ""},
	// next scanfs into &v, its parameter, and word into w.
	{"scanf-param", `
int next(int v, char *w) {
	if (scanf("%s %d", w, &v) != 2) return -1;
	return v;
}
int main() {
	char w[16];
	int v, sum = 0;
	while ((v = next(0, w)) >= 0) {
		sum += v;
		printf("%s %d %d\n", w, v, sum);
	}
	return 0;
}`, "apple 3\npear 14\nfig 159\n"},
}

// tightCases exercise the forms that cut dispatches: fused subscript
// loads (load.ai, load.pi), charges a jmp or br carries, and short-circuit
// values threaded into the branch that tests them. Each runs with its
// step budget (0 for the default) on empty stdin.
var tightCases = []struct {
	name, src string
	maxSteps  int64
}{
	{"fused-oob-array", `
int main() {
	int a[3];
	int i = 2;
	a[i] = 7;
	printf("%d\n", a[i]);
	i = i + 3;
	return a[i];
}`, 0},
	{"fused-oob-pointer", `
int main() {
	int a[3];
	int *p = a;
	int i = -1;
	printf("%d\n", p[0] + p[2]);
	return p[i];
}`, 0},
	{"fused-null-pointer", `
int main() {
	int *p = 0;
	int i = 1;
	printf("before\n");
	return i +
		p[i];
}`, 0},
	{"fused-non-pointer", `
int main() {
	char *s;
	int i = 0;
	printf("before\n");
	if (i == 0)
		return s[i];
	return 0;
}`, 0},
	// Compound assignments and increments through an index read their
	// target's base and index again: hidden lvalue reads.
	{"hidden-lvalue-reads", `
int main() {
	int a[4];
	int b[4];
	char buf[8];
	char *p = buf;
	int i, j = 1;
	for (i = 0; i < 4; i++) { a[i] = i * 3; b[i] = a[i] + 1; }
	for (i = 0; i < 8; i++) p[i] = 'a' + i;
	a[j] += a[j + 1];
	a[j]++;
	++b[a[0]];
	b[j] -= b[j]--;
	p[j] += 2;
	p[j + 1]++;
	printf("%d %d %d %d %c %c\n", a[1], a[2], b[0], b[1], p[1], buf[2]);
	return a[j] + p[0];
}`, 0},
	// The loop's only step charge rides on its back-edge jmp.
	{"budget-at-carried-charge", `
int main() {
	int i = 0;
	int s = 0;
	printf("start\n");
	while (1) {
		s = s + i;
		i++;
	}
	return s;
}`, 3000},
	{"value-outlives-branch", `
int main() {
	int a = 3, b = 0, c = 5;
	int x = a && b;
	int y = a || b;
	if (x) printf("x\n");
	if (y) printf("y %d\n", y);
	x = (a > 2 && c) || b;
	while (x) { printf("x %d\n", x); x = x && b; }
	printf("%d %d\n", x, y);
	return x + y;
}`, 0},
	{"while-1", `
int main() {
	int i = 0;
	while (1) {
		i++;
		if (i > 6) break;
		if (i % 2) continue;
		printf("%d\n", i);
	}
	for (;;) { if (i-- < 3) break; }
	return i;
}`, 0},
	{"nested-conditions", `
int pick(int a, int b, int c) {
	if ((a && b) || (c && !a)) return 1;
	if (a ? b || c : !b && c) return 2;
	return a && (b || c) ? 3 : 4;
}
int main() {
	char s[8];
	int a, b, c, n = 0;
	strcpy(s, " \t x");
	while (n < 8 && (s[n] == ' ' || s[n] == '\t')) n++;
	for (a = 0; a < 2; a++)
		for (b = 0; b < 2; b++)
			for (c = 0; c < 2; c++)
				printf("%d%d%d %d\n", a, b, c, pick(a, b, c));
	printf("%d %d\n", n, (n > 1 && (s[n] == 'x' || s[0] == 'y')) ? n : -n);
	return 0;
}`, 0},
}

// TestParityTight runs tightCases as written and optimized.
func TestParityTight(t *testing.T) {
	for _, tc := range tightCases {
		for _, optimize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", tc.name, optimize), func(t *testing.T) {
				prog, code := compileSrc(t, tc.src, optimize)
				compareRuns(t, runCore(prog, nil, "", tc.maxSteps), runCore(prog, code, "", tc.maxSteps))
			})
		}
	}
}

// TestStepBudgetAtCarriedCharge pins that budget-at-carried-charge's loop,
// from its back edge's target to its back edge, charges steps only on
// transfers, so the budget runs out at a carried charge, with the
// walker's output and error.
func TestStepBudgetAtCarriedCharge(t *testing.T) {
	tc := tightCases[0]
	for _, c := range tightCases {
		if c.name == "budget-at-carried-charge" {
			tc = c
		}
	}
	for _, optimize := range []bool{false, true} {
		prog, code := compileSrc(t, tc.src, optimize)
		main := code.Fns[code.Main]
		var loop []Instr
		for pc, in := range main.Code {
			if in.Op == OpJmp && int(in.A) <= pc {
				loop = main.Code[in.A : pc+1]
			}
		}
		carried := 0
		for _, in := range loop {
			if in.Op != OpCharge && in.Op != OpJmp && in.Op != OpBr || in.D == 0 || code.Charges[in.D-1].Steps == 0 {
				continue
			}
			if in.Op == OpCharge {
				t.Fatalf("optimize %v: a charge instruction in the loop makes steps:\n%s", optimize, Disassemble(code))
			}
			carried++
		}
		if carried == 0 {
			t.Fatalf("optimize %v: no transfer in the loop carries steps:\n%s", optimize, Disassemble(code))
		}
		walker, vm := runCore(prog, nil, "", tc.maxSteps), runCore(prog, code, "", tc.maxSteps)
		if walker.err != interp.ErrMaxSteps.Error() || walker.out != "start\n" {
			t.Fatalf("walker: output %q, error %q", walker.out, walker.err)
		}
		compareRuns(t, walker, vm)
	}
}

// fusedCases exercise the arithmetic that stores into its variable (an
// add, sub, mul or addn that computes a single-use temporary stores it in
// place of the store.v after it) and the int compares with a constant
// operand. Each runs with its step budget (0 for the default) on empty
// stdin; forms are patterns the optimized listing must match.
var fusedCases = []struct {
	name, src string
	maxSteps  int64
	forms     []string
}{
	{"int-wrap", `
int main() {
	int x = 2147483645;
	int y = 3;
	int k;
	for (k = 0; k < 4; k++) {
		x = x + 1;
		y = y * 7919;
		printf("%d %d\n", x, y);
	}
	return 0;
}`, 0, []string{`addn +r\d+, r\d+, \+1 \(x\)`, `mul\.i +r\d+, r\d+, r\d+ \(y\)`}},
	{"long-and-double", `
int main() {
	long s = 1;
	double d = 0.5;
	int i;
	for (i = 0; i < 50; i++) {
		s = s * 3 - i;
		d = d * 1.5 + i;
		d = d - 0.25;
	}
	printf("%ld %f\n", s, d);
	return 0;
}`, 0, []string{`sub\.i +r\d+, r\d+, r\d+ \(s\)`, `add\.f +r\d+, r\d+, r\d+ \(d\)`}},
	// An assignment yields its right-hand side unconverted, so the
	// arithmetic that reads it sees a float where its type says int, or
	// ints where it says double, and takes the slow path.
	{"kind-drift", `
int main() {
	int i, j;
	long n;
	double d, e, f;
	i = (j = 2.5) + 1;
	n = (j = 7.75) * 2;
	d = (e = 2) + (f = 3);
	printf("%d %d %ld %f %f\n", i, j, n, d, e);
	return 0;
}`, 0, nil},
	{"char-target", `
int main() {
	char c = 120;
	int k;
	for (k = 0; k < 20; k++) {
		c = c + 7;
		putchar(c % 26 + 97);
	}
	printf("\n%d\n", c);
	return 0;
}`, 0, []string{`store\.v +r\d+, r\d+ \(c\) folded`}},
	{"compare-limits", `
int main() {
	int x = 2147483640;
	int y = -2147483640;
	long big = 4294967290;
	int n = 0;
	int k;
	for (k = 0; k < 10; k++) {
		if (x == 2147483647) n = n + 1;
		if (y <= -2147483648) n = n + 100;
		if (big < 4294967296) n = n + 10000;
		x = x + 1;
		y = y - 1;
		big = big + 1;
	}
	printf("%d %d %d %ld\n", n, x, y, big);
	return 0;
}`, 0, []string{`eq\.ic +r\d+, r\d+, 2147483647\n`, `le\.ic +r\d+, r\d+, -2147483648\n`,
		`const +r(\d+), 4294967296\n +\d+ +lt\.i +r\d+, r\d+, r(\d+)\n`}},
	{"compare-drift", `
int main() {
	int j;
	int n = 0;
	if ((j = 2.5) < 3) n = n + 1;
	if ((j = 3.0) == 3) n = n + 10;
	if ((j = 2.5) == 2) n = n + 100;
	if ((j = 2.5) > 2) n = n + 1000;
	printf("%d %d\n", n, j);
	return 0;
}`, 0, nil},
	// n's address is taken, so it lives in an object: its load.o, not a
	// const, is the last instruction before the compare.
	{"compare-untracked", `
int main() {
	int n = 9;
	int *p = &n;
	int i = 0;
	while (i < n) {
		i = i + 2;
		*p = *p - 1;
	}
	printf("%d %d\n", i, n);
	return 0;
}`, 0, nil},
	{"budget-in-fused-loop", `
int main() {
	long s = 0;
	double d = 0;
	int i = 0;
	printf("start\n");
	while (i >= 0) {
		s = s * 3 + i;
		d = d + 0.5;
		i = i + 1;
		if (i == 1000000) printf("%ld %f\n", s, d);
	}
	return 0;
}`, 3000, []string{`add\.i +r\d+, r\d+, r\d+ \(s\)`, `ge\.ic +r\d+, r\d+, 0\n`}},
}

// TestParityFused runs fusedCases as written and optimized, and checks
// that the optimized listing has each case's forms.
func TestParityFused(t *testing.T) {
	for _, tc := range fusedCases {
		for _, optimize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", tc.name, optimize), func(t *testing.T) {
				prog, code := compileSrc(t, tc.src, optimize)
				compareRuns(t, runCore(prog, nil, "", tc.maxSteps), runCore(prog, code, "", tc.maxSteps))
				if !optimize {
					return
				}
				listing := Disassemble(code)
				for _, form := range tc.forms {
					if !regexp.MustCompile(form).MatchString(listing) {
						t.Errorf("no %q in\n%s", form, listing)
					}
				}
			})
		}
	}
}

// TestTightenGuards pins the two conditions tighten's rewrites rest on: a
// short-circuit value threads into the br that tests it only when it dies
// there, and a charge moves onto a transfer only when no jump lands on
// the transfer. No Table-2 program or test source reaches either guard,
// so the code is written by hand.
func TestTightenGuards(t *testing.T) {
	shortCircuit := []Instr{
		{Op: OpBr, A: 3, B: 1, C: 3},
		{Op: OpBool, A: 1, B: 2},
		{Op: OpJmp, A: 4},
		{Op: OpConst, A: 1, B: 0},
		{Op: OpBr, A: 1, B: 5, C: 6},
		{Op: OpRet, A: 1},
		{Op: OpRetZ},
	}
	targeted := []Instr{
		{Op: OpBr, A: 3, B: 1, C: 2},
		{Op: OpCharge, D: 1},
		{Op: OpBr, A: 1, B: 3, C: 4},
		{Op: OpRet, A: 1},
		{Op: OpRetZ},
	}
	untargeted := append([]Instr{{Op: OpBr, A: 3, B: 1, C: 3}}, targeted[1:]...)
	for _, tc := range []struct {
		name string
		code []Instr
		dies []int32
		want []Instr
	}{
		{"value-read-after-br", shortCircuit, nil, shortCircuit},
		{"value-dies-at-br", shortCircuit, []int32{4}, []Instr{
			{Op: OpBr, A: 3, B: 1, C: 3},
			{Op: OpBr, A: 2, B: 2, C: 3},
			{Op: OpRet, A: 1},
			{Op: OpRetZ},
		}},
		{"charge-before-targeted-br", targeted, nil, targeted},
		{"charge-before-untargeted-br", untargeted, nil, []Instr{
			{Op: OpBr, A: 3, B: 1, C: 2},
			{Op: OpBr, A: 1, B: 2, C: 3, D: 1},
			{Op: OpRet, A: 1},
			{Op: OpRetZ},
		}},
	} {
		fb := &fnBuilder{
			b:    &builder{prog: &Program{Consts: []interp.Value{interp.IntVal(0)}}},
			code: slices.Clone(tc.code),
			pos:  make([]minic.Pos, len(tc.code)),
			dies: tc.dies,
		}
		fb.tighten()
		if !slices.Equal(fb.code, tc.want) {
			t.Errorf("%s: tighten gave\n%v\nwant\n%v", tc.name, fb.code, tc.want)
		}
	}
}

// TestParityOptimized runs sources through the AST optimizer first: the
// bytecode compiler consumes optimizer output in production.
func TestParityOptimized(t *testing.T) {
	for _, src := range optimizedSrcs {
		prog, code := compileSrc(t, src, true)
		compareRuns(t, runCore(prog, nil, "", 0), runCore(prog, code, "", 0))
	}
	for _, ps := range paramSrcs {
		t.Run(ps.name, func(t *testing.T) {
			prog, code := compileSrc(t, ps.src, true)
			walker := runCore(prog, nil, ps.stdin, 0)
			if walker.err != "" || walker.out == "" {
				t.Fatalf("walker: output %q, error %q", walker.out, walker.err)
			}
			compareRuns(t, walker, runCore(prog, code, ps.stdin, 0))
		})
	}
}

// TestParityExitInOperand runs exit() inside operands in whole programs:
// their charges batch, but the totals at a call equal the walker's.
func TestParityExitInOperand(t *testing.T) {
	for _, stmt := range exitInOperandStmts {
		t.Run(stmt, func(t *testing.T) {
			checkParity(t, exitInOperandSrc(stmt))
		})
	}
}

// forwardingSrc reads tracked variables that the same expression then
// redefines, before the read is used: such a read must keep its own copy
// of the value rather than read the variable's register in place.
// region's x is assigned inside a conditional operand, so it is not
// tracked; overlap reads x inside a ?: arm and then redefines it.
const forwardingSrc = `
int f(int a, int b) { return a * 10 + b; }
int late(int x) { return x + (x = 1); }
int region(int x) { return x || (x = 7) ? x : 9; }
int overlap(int x, int k) {
	int y = x + (x = 3);
	printf("%d %d\n", x, y);
	y = x++;
	printf("%d %d\n", x, y);
	y = x * (x += 2);
	printf("%d %d\n", x, y);
	printf("%d\n", f(x, x = 2));
	y = (x > k ? x : k) + (x = 1);
	printf("%d %d\n", x, y);
	return x + y;
}
int main() {
	printf("%d %d\n", overlap(5, 2), overlap(-4, 0));
	printf("%d %d %d\n", late(4), region(0), region(3));
	return 0;
}`

// TestParityForwarding runs forwardingSrc as written and optimized.
func TestParityForwarding(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		prog, code := compileSrc(t, forwardingSrc, optimize)
		compareRuns(t, runCore(prog, nil, "", 0), runCore(prog, code, "", 0))
	}
}

// TestFragmentParity compiles a loop condition and body as the two entries
// of one kernel program and compares against the walker's EvalIn/ExecIn
// on the same machine state. The body calls a helper that reads the global g, which
// the host also binds in the frame: the entry reads the frame's object,
// and the helper, like the walker's callee frame, the global, which the
// thread copies from the host's after the host's <init> ran.
func TestFragmentParity(t *testing.T) {
	src := `
int g = 5;
int helper(int x) { return x * x + g; }
int main() {
	int i;
	int n;
	int sum;
	while (i < n) {
		sum = sum + helper(i) + g;
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

	kernel, err := CompileKernel(prog, nil, loop.Cond, loop.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(kernel); err != nil {
		t.Fatal(err)
	}

	run := func(useVM bool) (int64, interp.CountingSink, int64) {
		var sink interp.CountingSink
		m := interp.New(prog, interp.Options{Cost: &sink})
		w := walker.New(m)
		fr := walker.NewFrame()
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
		bind("g", 1000)
		sumObj := bind("sum", 0)

		if useVM {
			objs := make([]*interp.Object, kernel.Fns[0].NumObjSlots)
			for _, f := range kernel.Free {
				objs[f.Slot] = fr.Object(f.Sym)
			}
			// The host runs <init> on the same machine, so that both
			// sides charge the initializers once.
			host := NewVM(m, kernel)
			if err := host.start(); err != nil {
				t.Fatal(err)
			}
			vm, err := NewFragmentVM(m, NewImage(m, kernel, host.objs), objs, nil)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			for {
				v, _, err := vm.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, _, err := vm.Run(1); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for {
				v, err := w.EvalIn(fr, loop.Cond)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, err := w.ExecIn(fr, loop.Body); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sumObj.Cells[0].AsInt(), sink, m.Steps()
	}

	wSum, wSink, wSteps := run(false)
	vSum, vSink, vSteps := run(true)
	if want := int64(4900 + 25*5 + 25*1000); wSum != want {
		t.Fatalf("walker sum %d, want %d", wSum, want)
	}
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
