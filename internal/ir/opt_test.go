package ir

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/minic"
)

// runProg executes a program and returns its stdout, exit code, and error.
func runProg(t *testing.T, prog *minic.Program) (string, int, error) {
	t.Helper()
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdout: &out})
	code, err := walker.Run(m)
	return out.String(), code, err
}

// optEquiv checks that optimizing src leaves observable behavior
// byte-identical, and returns the optimizer stats.
func optEquiv(t *testing.T, src string) *Stats {
	t.Helper()
	ref, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	refOut, refCode, refErr := runProg(t, ref)

	opt, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	st := OptimizeProgram(opt)
	optOut, optCode, optErr := runProg(t, opt)

	if refOut != optOut {
		t.Fatalf("output changed after optimization:\nref: %q\nopt: %q\nstats: %v", refOut, optOut, st)
	}
	if refCode != optCode {
		t.Fatalf("exit code changed: ref %d, opt %d", refCode, optCode)
	}
	if (refErr == nil) != (optErr == nil) {
		t.Fatalf("error behavior changed: ref %v, opt %v", refErr, optErr)
	}
	return st
}

func TestFoldConstantExpressions(t *testing.T) {
	st := optEquiv(t, `
int main() {
	int a = 6 * 7;
	int b = a + 1;
	printf("%d %d\n", a, b);
	return 0;
}`)
	if st.Folded == 0 {
		t.Fatalf("expected constant folding, stats %v", st)
	}
	if st.NodesAfter >= st.NodesBefore {
		t.Fatalf("optimization should shrink the AST: %d -> %d", st.NodesBefore, st.NodesAfter)
	}
}

func TestDeadStoreElimination(t *testing.T) {
	st := optEquiv(t, `
int main() {
	int unused = 5;
	int x = 1;
	x = 2;
	x = 3;
	printf("%d\n", x);
	return 0;
}`)
	if st.Stores+st.Inits == 0 {
		t.Fatalf("expected dead stores removed, stats %v", st)
	}
}

// Deleting a dead init must not change what surviving dead code computes:
// here `y /= x` must keep x's initializer alive (or be removed together),
// or the program would start trapping on a zero divisor.
func TestDSEKeepsTrapSafety(t *testing.T) {
	optEquiv(t, `
int main() {
	int x = 5;
	int y = 10;
	y = y / x;
	printf("ok\n");
	return 0;
}`)
}

func TestLICMHoistsInvariant(t *testing.T) {
	st := optEquiv(t, `
int getval() { return 7; }
int main() {
	int n = getval() + 3;
	int m = getval() + 5;
	long s = 0;
	int i = 0;
	while (i < 10) {
		s = s + (n * m + 1);
		i = i + 1;
	}
	printf("%ld\n", s);
	return 0;
}`)
	if st.LICM == 0 {
		t.Fatalf("expected loop-invariant hoisting, stats %v", st)
	}
}

// Division and modulo by a maybe-zero divisor must never be folded,
// deleted, or hoisted: the runtime error is part of the semantics.
func TestNoFoldOfTrappingDivision(t *testing.T) {
	src := `
int main() {
	int z = 0;
	int y = 10 / z;
	printf("%d\n", y);
	return 0;
}`
	ref, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	_, _, refErr := runProg(t, ref)
	if refErr == nil {
		t.Fatal("reference should trap on division by zero")
	}
	opt, _ := minic.ParseAndCheck(src)
	OptimizeProgram(opt)
	_, _, optErr := runProg(t, opt)
	if optErr == nil {
		t.Fatal("optimized program must still trap on division by zero")
	}
}

// The checker accepts any operand for any operator, and the interpreter
// rejects a bitwise operator or % on a float or pointer and an ordering of
// unrelated pointers. Such an expression traps exactly where and when it
// did before optimization: an unused one, a dead store's or dead
// initializer's is not deleted, and one in a loop that never runs is not
// hoisted. In the last program, folding and DSE keep putchar('a') ahead of
// the d & 1 trap, so the 'a' is written before the run fails.
func TestOperandKindTrapsSurvive(t *testing.T) {
	for _, src := range []string{`
char msg;
int main() { msg & ""; printf("unreached\n"); return 0; }`, `
int main() { double d = 1.5; d << 1; printf("unreached\n"); return 0; }`, `
char a;
char b;
int main() { &a < &b; printf("unreached\n"); return 0; }`, `
int main() { double d = 2.5; int n; n = d % 2; printf("unreached\n"); return 0; }`, `
int main() { double d = 2.5; int n = d | 1; printf("unreached\n"); return 0; }`, `
int main() {
	double d = 1.5;
	long s = 0;
	int n = getchar();
	while (n > 0) { s = s + (d & 3) + 1; n--; }
	printf("%ld\n", s);
	return 0;
}`, `
int main() {
	double d = 1.5;
	int n;
	n = putchar('a') + (d & 1) * 3 + (d & 1) * 3;
	printf("%d\n", n);
	return 0;
}`,
	} {
		optEquiv(t, src)
	}
}

// Short-circuit evaluation: the right side's side effects must survive
// exactly when the left side does not decide.
func TestShortCircuitPreserved(t *testing.T) {
	optEquiv(t, `
int inc(int x) { printf("side\n"); return x + 1; }
int getval() { return 1; }
int main() {
	int a = 0;
	if (getval() > 0 && inc(a) > 0) { printf("taken\n"); }
	if (0 && inc(a) > 0) { printf("not\n"); }
	return 0;
}`)
}

// Compound assignments and increments are never deleted even when the
// final value is unused, because their AST carries the old-value read.
func TestCompoundStoresSurvive(t *testing.T) {
	optEquiv(t, `
int main() {
	int x = 1;
	x += 2;
	x++;
	printf("%d\n", x);
	return 0;
}`)
}

// Storage truncation: int stores truncate to 32 bits; folding must
// replicate the exact wraparound.
func TestFoldMatchesStorageTruncation(t *testing.T) {
	optEquiv(t, `
int main() {
	int x = 2147483647;
	x = x + 1;
	long y = 4294967296 + 5;
	printf("%d %ld\n", x, y);
	return 0;
}`)
}

// Float semantics: promotion, float32 truncation on store, and math
// builtin folding must match the interpreter bit for bit.
func TestFloatFolding(t *testing.T) {
	optEquiv(t, `
int main() {
	float f = 1.1;
	double d = f + 2.5;
	double r = sqrt(16.0) + pow(2.0, 10.0);
	printf("%f %f\n", d, r);
	return 0;
}`)
}

// A phi and a ?: that merge 0.0 with -0.0 are not constant: the lattice
// compares float bits, not float values. getchar() reads -1 from the
// empty stdin, so x is 0.0 and y is -0.0.
func TestSignedZeroMergeNotFolded(t *testing.T) {
	optEquiv(t, `
int main() {
	int c = getchar();
	double x;
	if (c < 0) x = 0.0; else x = -0.0;
	double y = c >= 0 ? 0.0 : -0.0;
	printf("%g %g\n", x, y);
	return 0;
}`)
}

// Arrays and pointers stay untouched: subscripts can trap, so loads and
// stores through them are liveness roots.
func TestArraysUntouched(t *testing.T) {
	optEquiv(t, `
int main() {
	int a[4];
	int i = 0;
	while (i < 4) { a[i] = i * i; i = i + 1; }
	int dead = a[2];
	printf("%d %d\n", a[1], a[3]);
	return 0;
}`)
}

// An uninitialized cell reads as integer zero regardless of declared
// type; optimization must not change that observable kind.
func TestUninitializedReadsSurvive(t *testing.T) {
	optEquiv(t, `
int main() {
	double d;
	long x;
	printf("%f %ld\n", d + 0.5, x + 1);
	return 0;
}`)
}

// mainFacts derives the lint facts for src's main function.
func mainFacts(t *testing.T, src string) *Facts {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if f.Name == "main" {
			return AnalyzeFunc(f)
		}
	}
	t.Fatal("no main")
	return nil
}

// SCCP folds a constant branch condition to a literal and DSE drops the
// initializer it read. The branch itself stays: its condition is a proven
// constant for HD601 and its dead arm is unreachable for HD602.
func TestSimplifyConstantBranch(t *testing.T) {
	src := `
int main() {
	int flag = 0;
	if (flag) { printf("never\n"); } else { printf("always\n"); }
	return 0;
}`
	st := optEquiv(t, src)
	if st.Folded == 0 || st.Inits == 0 {
		t.Fatalf("expected the condition folded and its initializer removed, stats %v", st)
	}
	if fx := mainFacts(t, src); len(fx.ConstConds) != 1 || len(fx.Unreachable) != 1 {
		t.Fatalf("expected one constant condition and one unreachable arm, got %d and %d",
			len(fx.ConstConds), len(fx.Unreachable))
	}
}

// The optimizer has no CSE: a repeated computation keeps its output and
// every node, and the fact base pairs the two copies for HD603, which
// leaves sharing them to the programmer.
func TestCSESharesRepeatedComputation(t *testing.T) {
	src := `
int getval() { return 3; }
int main() {
	int v = getval();
	int a = v * 100 + 7;
	int b = v * 100 + 7;
	printf("%d %d\n", a, b);
	return 0;
}`
	st := optEquiv(t, src)
	if st.Changed() || st.NodesAfter != st.NodesBefore {
		t.Fatalf("expected the repeated computation left in place, stats %v", st)
	}
	if fx := mainFacts(t, src); len(fx.Redundant) != 1 {
		t.Fatalf("expected one redundant pair, got %d", len(fx.Redundant))
	}
}

// The optimizer has no copy propagation: a copy and its readers keep
// their output and every node.
func TestCopyPropagation(t *testing.T) {
	st := optEquiv(t, `
int getval() { return 4; }
int main() {
	int base = getval() * 10;
	int alias = base;
	printf("%d %d %d\n", alias + 1, alias + 2, base);
	return 0;
}`)
	if st.Changed() || st.NodesAfter != st.NodesBefore {
		t.Fatalf("expected the copy left in place, stats %v", st)
	}
}

// The optimizer does not trim statements: code after a return keeps the
// output and every node, and the fact base reports it for HD602.
func TestUnreachableAfterReturnTrimmed(t *testing.T) {
	src := `
int main() {
	printf("live\n");
	return 0;
	printf("dead\n");
	return 1;
}`
	st := optEquiv(t, src)
	if st.Changed() || st.NodesAfter != st.NodesBefore {
		t.Fatalf("expected the code after return left in place, stats %v", st)
	}
	if fx := mainFacts(t, src); len(fx.Unreachable) != 1 {
		t.Fatalf("expected one unreachable region, got %d", len(fx.Unreachable))
	}
}

// The optimizer is deterministic: optimizing the same source twice gives
// structurally identical programs (same stats, same node counts).
func TestOptimizeDeterministic(t *testing.T) {
	src := `
int getval() { return 5; }
int main() {
	int v = getval();
	int n = v * 3 + 4;
	int m = v * 3 + 4;
	long s = 0;
	int i = 0;
	for (i = 0; i < 8; i++) {
		s = s + n * m;
	}
	if (1 == 2) { printf("no\n"); }
	printf("%ld %d %d\n", s, n, m);
	return 0;
}`
	p1, _ := minic.ParseAndCheck(src)
	p2, _ := minic.ParseAndCheck(src)
	s1 := OptimizeProgram(p1)
	s2 := OptimizeProgram(p2)
	if s1.String() != s2.String() {
		t.Fatalf("non-deterministic stats:\n%v\n%v", s1, s2)
	}
	var o1, o2 bytes.Buffer
	m1 := interp.New(p1, interp.Options{Stdout: &o1})
	m2 := interp.New(p2, interp.Options{Stdout: &o2})
	if _, err := walker.Run(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := walker.Run(m2); err != nil {
		t.Fatal(err)
	}
	if o1.String() != o2.String() {
		t.Fatal("outputs differ between identical optimizations")
	}
}

// The headline claim: optimization reduces the interpreter's virtual cost
// on a loop-heavy program.
func TestOptimizationReducesCost(t *testing.T) {
	src := `
int getval() { return 9; }
int main() {
	int v = getval();
	int scale = v * 31 + 7;
	int bias = v * 13 + 3;
	long total = 0;
	int i = 0;
	while (i < 200) {
		total = total + (scale * bias + 11) * 2;
		i = i + 1;
	}
	printf("%ld\n", total);
	return 0;
}`
	costOf := func(optimize bool) int64 {
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			OptimizeProgram(prog)
		}
		var out bytes.Buffer
		cost := &interp.CountingSink{}
		m := interp.New(prog, interp.Options{Stdout: &out, Cost: cost})
		if _, err := walker.Run(m); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "\n") {
			t.Fatal("program produced no output")
		}
		return cost.Ops + cost.Loads + cost.Stores
	}
	ref := costOf(false)
	opt := costOf(true)
	if opt >= ref {
		t.Fatalf("optimization should reduce interpreter ops: %d -> %d", ref, opt)
	}
}

func TestFactsConstCondAndOOB(t *testing.T) {
	fx := mainFacts(t, `
int main() {
	int a[8];
	int n = 3;
	if (n > 10) { printf("no\n"); }
	a[12] = 1;
	printf("%d\n", a[0]);
	return 0;
}`)
	if len(fx.ConstConds) == 0 {
		t.Fatal("n > 10 should be a proven-constant condition")
	}
	if len(fx.Unreachable) == 0 {
		t.Fatal("the branch body should be proven unreachable")
	}
	if len(fx.OOB) != 1 || fx.OOB[0].Index != 12 || fx.OOB[0].Len != 8 {
		t.Fatalf("a[12] on int[8] should be a proven out-of-range access, got %+v", fx.OOB)
	}
}
