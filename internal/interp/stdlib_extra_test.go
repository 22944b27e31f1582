package interp_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/minic"
)

func runSrc(t *testing.T, src, stdin string) string {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out strings.Builder
	m := interp.New(prog, interp.Options{Stdin: strings.NewReader(stdin), Stdout: &out})
	if _, err := walker.Run(m); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

func TestPrintfVerbCoverage(t *testing.T) {
	out := runSrc(t, `
int main() {
	printf("%x|%c|%e|%g|%%\n", 255, 'Z', 1234.5, 0.5);
	printf("%.0f %.1f %.5f\n", 2.5, 2.25, 1.0);
	printf("%ld %d\n", 9999999999, -1);
	return 0;
}`, "")
	want := "ff|Z|1.234500e+03|0.5|%\n2 2.2 1.00000\n9999999999 -1\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestPrintfErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { printf("%d\n"); return 0; }`,     // missing arg
		`int main() { printf("%q\n", 1); return 0; }`,  // unknown verb
		`int main() { printf("%s\n", 42); return 0; }`, // %s non-pointer
		`int main() { printf("trail%"); return 0; }`,   // dangling %
	} {
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(prog, interp.Options{})
		if _, err := walker.Run(m); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestBuiltinsRejectOutOfObjectPointers pins that a pointer outside its
// object reaching a builtin is a runtime error, never a host panic:
// before its object for the string and memory builtins, and anywhere
// outside it for a scalar destination.
func TestBuiltinsRejectOutOfObjectPointers(t *testing.T) {
	for _, src := range []string{
		`int main() { char a[4]; return strlen(a - 5); }`,
		`int main() { char a[4]; return strcmp(a - 5, "x"); }`,
		`int main() { char a[4]; strcpy(a - 1, "x"); return 0; }`,
		`int main() { char a[4]; memset(a - 5, 0, 3); return 0; }`,
		`int main() { char a[4]; char b[4]; memcpy(b, a - 5, 3); return 0; }`,
		`int main() { char a[4]; strcat(a - 2, "x"); return 0; }`,
		`int main() { int x[2]; scanf("%d", x + 2); return 0; }`,
		`int main() { int x[2]; scanf("%d", x - 1); return 0; }`,
		`int main() { char *line[1]; int n; getline(line + 1, &n, stdin); return 0; }`,
	} {
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(prog, interp.Options{Stdin: strings.NewReader("7 8\n")})
		if _, err := walker.Run(m); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	// Reads and writes through such a pointer elsewhere clamp to nothing.
	out := runSrc(t, `int main() { char a[4]; printf("[%s]\n", a - 3); return 0; }`, "")
	if out != "[]\n" {
		t.Errorf("printf %%s before the object = %q, want \"[]\\n\"", out)
	}
}

func TestScanfCharAndMixed(t *testing.T) {
	out := runSrc(t, `
int main() {
	char c;
	scanf("%c", &c);
	printf("%c\n", c);
	int i; double d;
	scanf("%d %lf", &i, &d);
	printf("%d %.1f\n", i, d);
	return 0;
}`, "X 42 2.5\n")
	if out != "X\n42 2.5\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestScanfStopsOnMalformedToken(t *testing.T) {
	out := runSrc(t, `
int main() {
	int v, n = 0;
	while (scanf("%d", &v) == 1) n++;
	printf("%d\n", n);
	return 0;
}`, "1 2 three 4\n")
	if out != "2\n" {
		t.Fatalf("out = %q (scanf should stop at 'three')", out)
	}
}

func TestGetcharPutchar(t *testing.T) {
	out := runSrc(t, `
int main() {
	int c;
	while ((c = getchar()) != -1) {
		putchar(toupper(c));
	}
	return 0;
}`, "abc\n")
	if out != "ABC\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestStrncpyAndStrncmp(t *testing.T) {
	out := runSrc(t, `
int main() {
	char buf[10];
	strncpy(buf, "abcdef", 3);
	printf("%s\n", buf);
	printf("%d %d %d\n",
		strncmp("abcdef", "abcxyz", 3),
		strncmp("abcdef", "abcxyz", 4) < 0 ? -1 : 1,
		strncmp("abc", "abc", 100));
	return 0;
}`, "")
	if out != "abc\n0 -1 0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestCallocZeroes(t *testing.T) {
	out := runSrc(t, `
int main() {
	int *p = (int*) calloc(4, sizeof(int));
	int sum = 0;
	for (int i = 0; i < 4; i++) sum += p[i];
	printf("%d\n", sum);
	free(p);
	return 0;
}`, "")
	if out != "0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestMathFunctions(t *testing.T) {
	out := runSrc(t, `
int main() {
	printf("%.3f %.3f %.3f %.3f\n", floor(2.7), ceil(2.1), fmin(1.0, 2.0), fmax(1.0, 2.0));
	printf("%.3f %.3f\n", fabs(-3.5), log2(8.0));
	printf("%.4f %.4f\n", sin(0.0), cos(0.0));
	printf("%.4f\n", erf(0.0));
	return 0;
}`, "")
	want := "2.000 3.000 1.000 2.000\n3.500 3.000\n0.0000 1.0000\n0.0000\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestMallocNegativeFails(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { char *p = (char*) malloc(-5); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err == nil {
		t.Fatal("negative malloc accepted")
	}
}

func TestPointerComparisonsAndArithmetic(t *testing.T) {
	out := runSrc(t, `
int main() {
	char buf[10];
	char *a = buf;
	char *b = buf + 4;
	printf("%d %d %d %d\n", a < b, a == b, b - a, (b - 2) - a);
	return 0;
}`, "")
	if out != "1 0 4 2\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestUnrelatedPointerSubtractionFails(t *testing.T) {
	prog, err := minic.ParseAndCheck(`
int main() {
	char a[4], b[4];
	char *p = a, *q = b;
	return (int)(p - q);
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err == nil {
		t.Fatal("cross-object pointer subtraction accepted")
	}
}

func TestStepCounterVisible(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { for (int i = 0; i < 100; i++) { } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	if m.Steps() < 100 {
		t.Fatalf("Steps = %d", m.Steps())
	}
}

// TestStdinBufferLazyAndSized pins the stdin read buffer: none for a
// machine that never reads, one sized to an input that reports its length
// (capped at maxStdinBuf), and correct reads of a line longer than that
// buffer and of an input that does not report its length.
func TestStdinBufferLazyAndSized(t *testing.T) {
	const echoLines = `
int main() {
	char *line;
	size_t n = 4;
	int read;
	line = (char*) malloc(n * sizeof(char));
	while ((read = getline(&line, &n, stdin)) != -1) {
		printf("%d %d\n", read, strlen(line));
	}
	return 0;
}`
	if m := runMachine(t, `int main() { return 0; }`, nil, nil); interp.StdinBufSize(m) != 0 {
		t.Fatal("machine with nil Stdin allocated a read buffer")
	}

	var out strings.Builder
	long := strings.Repeat("x", interp.MaxStdinBuf+1000)
	m := runMachine(t, echoLines, strings.NewReader(long+"\nab\n"), &out)
	if want := fmt.Sprintf("%d %d\n3 3\n", len(long)+1, len(long)+1); out.String() != want {
		t.Fatalf("long line: out = %q, want %q", out.String(), want)
	}
	if got := interp.StdinBufSize(m); got != interp.MaxStdinBuf {
		t.Fatalf("buffer for a %d-byte input = %d bytes, want the %d-byte cap", len(long)+4, got, interp.MaxStdinBuf)
	}

	out.Reset()
	m = runMachine(t, echoLines, strings.NewReader("one\ntwo\n"), &out)
	if out.String() != "4 4\n4 4\n" {
		t.Fatalf("short input: out = %q", out.String())
	}
	if got := interp.StdinBufSize(m); got >= interp.MaxStdinBuf {
		t.Fatalf("buffer for an 8-byte input = %d bytes, want it sized to the input", got)
	}

	out.Reset()
	m = runMachine(t, `
int main() {
	int a, b;
	char *line;
	size_t n = 8;
	line = (char*) malloc(n * sizeof(char));
	scanf("%d %d", &a, &b);
	getline(&line, &n, stdin);
	getline(&line, &n, stdin);
	printf("%d %s", a + b, line);
	return 0;
}`, iotest.OneByteReader(strings.NewReader("3 4\nhello\n")), &out)
	if out.String() != "7 hello\n" {
		t.Fatalf("reader without Len: out = %q", out.String())
	}
	if got := interp.StdinBufSize(m); got != interp.MaxStdinBuf {
		t.Fatalf("buffer for a reader without Len = %d bytes, want %d", got, interp.MaxStdinBuf)
	}
}

func runMachine(t *testing.T, src string, stdin io.Reader, stdout io.Writer) *interp.Machine {
	t.Helper()
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, interp.Options{Stdin: stdin, Stdout: stdout})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}
