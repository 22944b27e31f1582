package interp_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/minic"
)

// run executes src with the given stdin and returns (stdout, exitCode).
func run(t *testing.T, src, stdin string) (string, int) {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdin: strings.NewReader(stdin), Stdout: &out})
	code, err := walker.Run(m)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String(), code
}

func TestArithmetic(t *testing.T) {
	out, code := run(t, `
int main() {
	int a = 7, b = 3;
	printf("%d %d %d %d %d\n", a+b, a-b, a*b, a/b, a%b);
	printf("%d %d %d\n", a << 1, a >> 1, a & b);
	printf("%d %d %d\n", a | b, a ^ b, ~a);
	return 0;
}`, "")
	want := "10 4 21 2 1\n14 3 3\n7 4 -8\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
}

func TestFloatArithmetic(t *testing.T) {
	out, _ := run(t, `
int main() {
	double a = 2.5, b = 0.5;
	printf("%.2f %.2f %.2f %.2f\n", a+b, a-b, a*b, a/b);
	printf("%.4f %.4f\n", sqrt(2.0), pow(2.0, 10.0));
	return 0;
}`, "")
	want := "3.00 2.00 1.25 5.00\n1.4142 1024.0000\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestComparisonAndLogical(t *testing.T) {
	out, _ := run(t, `
int main() {
	int a = 5, b = 10;
	printf("%d%d%d%d%d%d\n", a<b, a>b, a<=b, a>=b, a==b, a!=b);
	printf("%d%d%d\n", a && b, a || 0, !a);
	return 0;
}`, "")
	if out != "101001\n110\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// Division by zero on the right of && must not execute when left is 0.
	out, _ := run(t, `
int main() {
	int zero = 0;
	int x = 0;
	if (zero && (10 / zero)) x = 1;
	if (1 || (10 / zero)) x = x + 2;
	printf("%d\n", x);
	return 0;
}`, "")
	if out != "2\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestControlFlow(t *testing.T) {
	out, _ := run(t, `
int main() {
	int total = 0;
	for (int i = 0; i < 10; i++) {
		if (i == 3) continue;
		if (i == 7) break;
		total += i;
	}
	int j = 0;
	while (j < 5) { total += 100; j++; }
	printf("%d\n", total);
	return 0;
}`, "")
	// 0+1+2+4+5+6 = 18, + 500
	if out != "518\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestTernaryAndCompoundAssign(t *testing.T) {
	out, _ := run(t, `
int main() {
	int a = 3;
	int b = a > 2 ? 10 : 20;
	a += 5; a -= 2; a *= 3; a /= 2; a %= 7;
	printf("%d %d\n", a, b);
	return 0;
}`, "")
	// a: 3+5=8, -2=6, *3=18, /2=9, %7=2
	if out != "2 10\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestIncDecSemantics(t *testing.T) {
	out, _ := run(t, `
int main() {
	int i = 5;
	printf("%d ", i++);
	printf("%d ", i);
	printf("%d ", ++i);
	printf("%d ", i--);
	printf("%d ", --i);
	printf("%d\n", i);
	return 0;
}`, "")
	if out != "5 6 7 7 5 5\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestArraysAndPointers(t *testing.T) {
	out, _ := run(t, `
int main() {
	int a[5];
	for (int i = 0; i < 5; i++) a[i] = i * i;
	int *p = &a[1];
	printf("%d %d %d\n", a[4], *p, *(p + 2));
	*p = 100;
	printf("%d\n", a[1]);
	int x = 7;
	int *q = &x;
	int **qq = &q;
	**qq = 9;
	printf("%d\n", x);
	return 0;
}`, "")
	if out != "16 1 9\n100\n9\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestMultiDimensionalArrays(t *testing.T) {
	out, _ := run(t, `
int main() {
	int m[3][4];
	for (int i = 0; i < 3; i++)
		for (int j = 0; j < 4; j++)
			m[i][j] = i * 10 + j;
	printf("%d %d %d\n", m[0][0], m[1][2], m[2][3]);
	return 0;
}`, "")
	if out != "0 12 23\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestCharBuffersAndStrings(t *testing.T) {
	out, _ := run(t, `
int main() {
	char buf[32];
	strcpy(buf, "hello");
	strcat(buf, " world");
	printf("%s %d\n", buf, strlen(buf));
	printf("%d %d\n", strcmp("abc", "abd"), strcmp("same", "same"));
	char *found = strstr(buf, "world");
	if (found != NULL) printf("%s\n", found);
	printf("%d %d\n", atoi("  42abc"), atoi("-17"));
	printf("%.2f\n", atof("3.5"));
	return 0;
}`, "")
	want := "hello world 11\n-1 0\nworld\n42 -17\n3.50\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestMallocAndCasts(t *testing.T) {
	out, _ := run(t, `
int main() {
	char *p = (char*) malloc(16 * sizeof(char));
	strcpy(p, "dyn");
	printf("%s\n", p);
	free(p);
	double d = 3.9;
	int i = (int) d;
	printf("%d\n", i);
	return 0;
}`, "")
	if out != "dyn\n3\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestUserFunctionsAndRecursion(t *testing.T) {
	out, _ := run(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
void fill(int *arr, int n, int v) {
	for (int i = 0; i < n; i++) arr[i] = v;
}
int main() {
	printf("%d\n", fib(10));
	int a[3];
	fill(a, 3, 9);
	printf("%d %d %d\n", a[0], a[1], a[2]);
	return 0;
}`, "")
	if out != "55\n9 9 9\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGetlineReadsLines(t *testing.T) {
	out, _ := run(t, `
int main() {
	char *line;
	size_t n = 256;
	int read;
	line = (char*) malloc(n * sizeof(char));
	int count = 0, bytes = 0;
	while ((read = getline(&line, &n, stdin)) != -1) {
		count++;
		bytes += read;
	}
	printf("%d %d\n", count, bytes);
	free(line);
	return 0;
}`, "first line\nsecond\nthird one here\n")
	// 11 + 7 + 15 = 33 bytes including newlines
	if out != "3 33\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGetlineGrowsBuffer(t *testing.T) {
	long := strings.Repeat("x", 500)
	out, _ := run(t, `
int main() {
	char *line;
	size_t n = 4;
	int read;
	line = (char*) malloc(n * sizeof(char));
	read = getline(&line, &n, stdin);
	printf("%d %d\n", read, strlen(line));
	return 0;
}`, long+"\n")
	if out != "501 501\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestScanfTokens(t *testing.T) {
	out, _ := run(t, `
int main() {
	char word[64];
	int val;
	int read;
	int total = 0, lines = 0;
	while ((read = scanf("%s %d", word, &val)) == 2) {
		total += val;
		lines++;
	}
	printf("%d %d\n", lines, total);
	return 0;
}`, "apple\t3\nbanana\t4\ncarrot\t5\n")
	if out != "3 12\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestScanfFloat(t *testing.T) {
	out, _ := run(t, `
int main() {
	double x;
	double sum = 0;
	while (scanf("%lf", &x) == 1) sum += x;
	printf("%.1f\n", sum);
	return 0;
}`, "1.5 2.5\n3.0\n")
	if out != "7.0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGlobalsInitialized(t *testing.T) {
	out, _ := run(t, `
int counter = 10;
double scale = 2.5;
int bump(int by) { counter += by; return counter; }
int main() {
	bump(5);
	printf("%d %.1f\n", counter, scale);
	return 0;
}`, "")
	if out != "15 2.5\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestCharConversionWraps(t *testing.T) {
	out, _ := run(t, `
int main() {
	char c = 300;
	printf("%d\n", c);
	return 0;
}`, "")
	if out != "44\n" { // 300 mod 256
		t.Fatalf("out = %q", out)
	}
}

func TestExitStatusAndReturnCode(t *testing.T) {
	_, code := run(t, `int main() { return 3; }`, "")
	if code != 3 {
		t.Fatalf("code = %d, want 3", code)
	}
	_, code = run(t, `int main() { exit(7); return 1; }`, "")
	if code != 7 {
		t.Fatalf("exit code = %d, want 7", code)
	}
}

func TestDivisionByZeroError(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { int z = 0; return 1 / z; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err == nil {
		t.Fatal("division by zero did not error")
	}
}

func TestOutOfBoundsError(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { int a[3]; a[5] = 1; return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err == nil {
		t.Fatal("out-of-bounds store did not error")
	}
}

func TestNullDereferenceError(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { int *p = NULL; return *p; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err == nil {
		t.Fatal("null dereference did not error")
	}
}

func TestInfiniteLoopTripsStepBudget(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { while (1) { } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{MaxSteps: 1000})
	if _, err := walker.Run(m); err != interp.ErrMaxSteps {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestCostSinkCounts(t *testing.T) {
	prog, err := minic.ParseAndCheck(`
int main() {
	int a[100];
	for (int i = 0; i < 100; i++) a[i] = i;
	int sum = 0;
	for (int i = 0; i < 100; i++) sum += a[i];
	return sum;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sink := &interp.CountingSink{}
	m := interp.New(prog, interp.Options{Cost: sink})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	if sink.Ops == 0 || sink.Loads == 0 || sink.Stores == 0 {
		t.Fatalf("cost sink saw nothing: %+v", sink)
	}
	if sink.Stores < 100 {
		t.Fatalf("stores = %d, want >= 100 array writes", sink.Stores)
	}
}

func TestCtypeBuiltins(t *testing.T) {
	out, _ := run(t, `
int main() {
	printf("%d%d%d%d\n", isdigit('5'), isdigit('a'), isalpha('x'), isspace(' '));
	printf("%c%c\n", tolower('A'), toupper('b'));
	return 0;
}`, "")
	if out != "1011\naB\n"[0:len(out)] && out != "1011\naB\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestMemsetMemcpy(t *testing.T) {
	out, _ := run(t, `
int main() {
	char a[8], b[8];
	memset(a, 'x', 7);
	a[7] = '\0';
	memcpy(b, a, 8);
	printf("%s %s\n", a, b);
	return 0;
}`, "")
	if out != "xxxxxxx xxxxxxx\n" {
		t.Fatalf("out = %q", out)
	}
}

// TestWordcountMapperListing1 runs the paper's Listing 1 (wordcount map
// with HeteroDoop directives) on the CPU path, where pragmas are inert.
func TestWordcountMapperListing1(t *testing.T) {
	src := `
int getWord(char *line, int offset, char *word, int read, int maxw) {
	int i = offset, j = 0;
	while (i < read && (line[i] == ' ' || line[i] == '\n' || line[i] == '\t')) i++;
	while (i < read && line[i] != ' ' && line[i] != '\n' && line[i] != '\t' && j < maxw - 1) {
		word[j] = line[i];
		i++; j++;
	}
	if (j == 0) return -1;
	word[j] = '\0';
	return i - offset;
}
int main() {
	char word[30], *line;
	size_t nbytes = 10000;
	int read, linePtr, offset, one;
	line = (char*) malloc(nbytes * sizeof(char));
	#pragma mapreduce mapper key(word) value(one) keylength(30)
	while ((read = getline(&line, &nbytes, stdin)) != -1) {
		linePtr = 0;
		offset = 0;
		one = 1;
		while ((linePtr = getWord(line, offset, word, read, 30)) != -1) {
			printf("%s\t%d\n", word, one);
			offset += linePtr;
		}
	}
	free(line);
	return 0;
}`
	out, _ := run(t, src, "the quick fox\nthe lazy dog\n")
	want := "the\t1\nquick\t1\nfox\t1\nthe\t1\nlazy\t1\ndog\t1\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

// TestWordcountCombinerListing2 runs the paper's Listing 2 (wordcount
// combiner) over sorted KV input.
func TestWordcountCombinerListing2(t *testing.T) {
	src := `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
	#pragma mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) keylength(30) vallength(1) firstprivate(prevWord, count)
	{
		while ((read = scanf("%s %d", word, &val)) == 2) {
			if (strcmp(word, prevWord) == 0) {
				count += val;
			} else {
				if (prevWord[0] != '\0')
					printf("%s\t%d\n", prevWord, count);
				strcpy(prevWord, word);
				count = val;
			}
		}
		if (prevWord[0] != '\0')
			printf("%s\t%d\n", prevWord, count);
	}
	return 0;
}`
	out, _ := run(t, src, "dog\t1\nfox\t1\nlazy\t1\nquick\t1\nthe\t1\nthe\t1\n")
	want := "dog\t1\nfox\t1\nlazy\t1\nquick\t1\nthe\t2\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestIntrinsicOverride(t *testing.T) {
	prog, err := minic.ParseAndCheck(`
int main() {
	printf("ignored");
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	called := 0
	m := interp.New(prog, interp.Options{Intrinsics: map[string]interp.Builtin{
		"printf": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			called++
			return interp.IntVal(0), nil
		},
	}})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Fatalf("intrinsic override called %d times", called)
	}
}

func TestSpaceForPlacement(t *testing.T) {
	prog, err := minic.ParseAndCheck(`
int main() {
	int x = 1;
	x = x + 1;
	return x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sink := &spaceSink{}
	m := interp.New(prog, interp.Options{
		Cost:     sink,
		SpaceFor: func(sym *minic.Symbol) interp.MemSpace { return interp.SpaceShared },
	})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	if sink.loads[interp.SpaceShared] == 0 || sink.loads[interp.SpaceRAM] != 0 {
		t.Fatalf("SpaceFor placement not honored in cost accounting: loads by space %v", sink.loads)
	}
}

// spaceSink counts loads by memory space.
type spaceSink struct {
	interp.NopSink
	loads [8]int
}

func (s *spaceSink) Load(sp interp.MemSpace, _ int) { s.loads[sp]++ }

func TestStringEscapesInPrintf(t *testing.T) {
	out, _ := run(t, `int main() { printf("a\tb\nc\n"); return 0; }`, "")
	if out != "a\tb\nc\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSizeofVariants(t *testing.T) {
	out, _ := run(t, `
int main() {
	int x;
	double arr[10];
	printf("%d %d %d %d\n", sizeof(int), sizeof(double), sizeof(x), sizeof(arr));
	return 0;
}`, "")
	if out != "4 8 4 80\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestReadWriteCString(t *testing.T) {
	obj := interp.NewObject("buf", minic.CharType, 8, interp.SpaceRAM)
	p := interp.Pointer{Obj: obj}
	n := interp.WriteCString(p, "hello")
	if n != 5 {
		t.Fatalf("wrote %d", n)
	}
	if got := interp.ReadCString(p); got != "hello" {
		t.Fatalf("read %q", got)
	}
	// Truncation clamps.
	n = interp.WriteCString(p, "averylongstring")
	if n != 8 {
		t.Fatalf("clamped write = %d", n)
	}
}
