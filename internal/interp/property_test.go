package interp_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/minic"
	"repro/internal/sim"
)

// exprNode is a random integer expression with a known reference value,
// used to cross-check the interpreter against an independent evaluator.
type exprNode struct {
	text string
	val  int64
}

func lit(v int64) exprNode { return exprNode{text: strconv.FormatInt(v, 10), val: v} }

// genExpr builds a random expression of bounded depth. Division and
// modulo are only generated with non-zero right operands.
func genExpr(rng *sim.RNG, depth int) exprNode {
	if depth == 0 || rng.Intn(3) == 0 {
		return lit(int64(rng.Intn(200) - 100))
	}
	l := genExpr(rng, depth-1)
	r := genExpr(rng, depth-1)
	ops := []string{"+", "-", "*", "/", "%", "<", ">", "==", "!=", "&", "|", "^", "&&", "||"}
	op := ops[rng.Intn(len(ops))]
	if (op == "/" || op == "%") && r.val == 0 {
		r = lit(int64(rng.Intn(50) + 1))
	}
	var v int64
	b := func(cond bool) int64 {
		if cond {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		v = l.val + r.val
	case "-":
		v = l.val - r.val
	case "*":
		v = l.val * r.val
	case "/":
		v = l.val / r.val
	case "%":
		v = l.val % r.val
	case "<":
		v = b(l.val < r.val)
	case ">":
		v = b(l.val > r.val)
	case "==":
		v = b(l.val == r.val)
	case "!=":
		v = b(l.val != r.val)
	case "&":
		v = l.val & r.val
	case "|":
		v = l.val | r.val
	case "^":
		v = l.val ^ r.val
	case "&&":
		v = b(l.val != 0 && r.val != 0)
	case "||":
		v = b(l.val != 0 || r.val != 0)
	}
	// Negative literals need parens after operators; parenthesize
	// everything for unambiguous precedence.
	return exprNode{text: "(" + l.text + " " + op + " " + r.text + ")", val: v}
}

// TestRandomExpressionsMatchReference cross-checks 300 random integer
// expressions against an independent Go evaluation.
func TestRandomExpressionsMatchReference(t *testing.T) {
	rng := sim.NewRNG(20150615)
	for i := 0; i < 300; i++ {
		e := genExpr(rng, 4)
		src := fmt.Sprintf("int main() { long v = %s; printf(\"%%d\\n\", v); return 0; }", e.text)
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("case %d: parse %q: %v", i, e.text, err)
		}
		var out bytes.Buffer
		m := interp.New(prog, interp.Options{Stdout: &out})
		if _, err := walker.Run(m); err != nil {
			t.Fatalf("case %d: run %q: %v", i, e.text, err)
		}
		got := strings.TrimSpace(out.String())
		want := strconv.FormatInt(e.val, 10)
		if got != want {
			t.Fatalf("case %d: %s = %s, want %s", i, e.text, got, want)
		}
	}
}

// TestPrintfScanfRoundTrip pushes random KV lines through a printf-ing
// producer and a scanf-ing consumer, checking totals.
func TestPrintfScanfRoundTrip(t *testing.T) {
	rng := sim.NewRNG(99)
	var input bytes.Buffer
	var wantSum int64
	n := 200
	for i := 0; i < n; i++ {
		v := int64(rng.Intn(1000) - 500)
		wantSum += v
		fmt.Fprintf(&input, "key%d\t%d\n", rng.Intn(50), v)
	}
	src := `
int main() {
	char key[32];
	int val, read;
	int sum = 0, count = 0;
	while ((read = scanf("%s %d", key, &val)) == 2) {
		sum += val;
		count++;
	}
	printf("%d %d\n", count, sum);
	return 0;
}`
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdin: bytes.NewReader(input.Bytes()), Stdout: &out})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d %d\n", n, wantSum)
	if out.String() != want {
		t.Fatalf("round trip = %q, want %q", out.String(), want)
	}
}

// TestStringFunctionsAgainstGo cross-checks strcmp/strlen/strstr against
// Go's string operations on random inputs.
func TestStringFunctionsAgainstGo(t *testing.T) {
	rng := sim.NewRNG(7)
	alphabet := "abcde"
	randStr := func(max int) string {
		n := rng.Intn(max + 1)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 100; i++ {
		a, c := randStr(8), randStr(4)
		src := fmt.Sprintf(`
int main() {
	char a[16], c[16];
	strcpy(a, %q);
	strcpy(c, %q);
	int cmp = strcmp(a, c);
	int sign = 0;
	if (cmp > 0) sign = 1;
	if (cmp < 0) sign = -1;
	int found = 0;
	if (strstr(a, c) != NULL) found = 1;
	printf("%%d %%d %%d %%d\n", sign, strlen(a), strlen(c), found);
	return 0;
}`, a, c)
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var out bytes.Buffer
		m := interp.New(prog, interp.Options{Stdout: &out})
		if _, err := walker.Run(m); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		sign := 0
		if a > c {
			sign = 1
		} else if a < c {
			sign = -1
		}
		found := 0
		if strings.Contains(a, c) {
			found = 1
		}
		want := fmt.Sprintf("%d %d %d %d\n", sign, len(a), len(c), found)
		if out.String() != want {
			t.Fatalf("case %d (a=%q c=%q): got %q want %q", i, a, c, out.String(), want)
		}
	}
}

// TestAtoiAtofAgainstGo cross-checks the incremental parsers.
func TestAtoiAtofAgainstGo(t *testing.T) {
	cases := []struct {
		in      string
		wantInt int64
	}{
		{"123", 123}, {"-45", -45}, {"  78xyz", 78}, {"0", 0},
		{"+9", 9}, {"abc", 0}, {"12 34", 12}, {"999999999", 999999999},
	}
	for _, c := range cases {
		src := fmt.Sprintf(`int main() { printf("%%d\n", atoi(%q)); return 0; }`, c.in)
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		m := interp.New(prog, interp.Options{Stdout: &out})
		if _, err := walker.Run(m); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d\n", c.wantInt)
		if out.String() != want {
			t.Errorf("atoi(%q) = %q, want %q", c.in, out.String(), want)
		}
	}
	fcases := []struct {
		in   string
		want float64
	}{
		{"1.5", 1.5}, {"-2.25", -2.25}, {"3", 3}, {"1e2", 100},
		{"4.5e-1", 0.45}, {"  7.5abc", 7.5}, {"x", 0},
	}
	for _, c := range fcases {
		src := fmt.Sprintf(`int main() { printf("%%.4f\n", atof(%q)); return 0; }`, c.in)
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		m := interp.New(prog, interp.Options{Stdout: &out})
		if _, err := walker.Run(m); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%.4f\n", c.want)
		if out.String() != want {
			t.Errorf("atof(%q) = %q, want %q", c.in, out.String(), want)
		}
	}
}

// TestAtoiDoesNotScanPastNumber verifies the fix for the GPU-path bug
// where atoi on a pointer into a large unterminated buffer scanned to the
// buffer's end: the cost must be proportional to the number, not the
// buffer.
func TestAtoiDoesNotScanPastNumber(t *testing.T) {
	big := strings.Repeat("x", 100000)
	src := fmt.Sprintf(`
int main() {
	char *buf;
	buf = (char*) malloc(%d);
	strcpy(buf, "42%s");
	int v = atoi(buf);
	printf("%%d\n", v);
	return 0;
}`, len(big)+16, big)
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	sink := &interp.CountingSink{}
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdout: &out, Cost: sink})
	before := func() int64 { return sink.Ops }
	_ = before
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "42") {
		t.Fatalf("out = %q", out.String())
	}
	// strcpy necessarily touches the whole buffer; atoi must not. Total
	// ops should be well under 3 buffer lengths (strcpy read+write) plus
	// slack — a scanning atoi would add another ~100k.
	if sink.Ops > 320000 {
		t.Fatalf("ops = %d: atoi likely scanned the whole buffer", sink.Ops)
	}
}
