package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

func mustParse(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.ParseAndCheckFile("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func codes(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

func TestSeverityOrderingAndClean(t *testing.T) {
	diags := []Diagnostic{
		{Code: "HD204", Severity: SevInfo},
		{Code: "HD202", Severity: SevWarning},
	}
	if Clean(diags) {
		t.Errorf("warning-bearing set reported clean")
	}
	if Clean(diags[:1]) != true {
		t.Errorf("info-only set reported unclean")
	}
	if HasErrors(diags) {
		t.Errorf("no errors present, HasErrors = true")
	}
}

func TestSortOrdersByPositionThenCode(t *testing.T) {
	diags := []Diagnostic{
		{Code: "HD302", Pos: minic.Pos{Line: 5, Col: 1}},
		{Code: "HD201", Pos: minic.Pos{Line: 5, Col: 1}},
		{Code: "HD101", Pos: minic.Pos{Line: 2, Col: 9}},
	}
	Sort(diags)
	if got := strings.Join(codes(diags), " "); got != "HD101 HD201 HD302" {
		t.Errorf("sorted codes = %q", got)
	}
}

func TestCatalogSeveritiesUsedByPasses(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Catalog {
		if seen[c.Code] {
			t.Errorf("duplicate catalog code %s", c.Code)
		}
		seen[c.Code] = true
		if catalogSeverity(c.Code) != c.Severity {
			t.Errorf("catalogSeverity(%s) != catalog entry", c.Code)
		}
	}
	if catalogSeverity("HDXXX") != SevError {
		t.Errorf("unknown codes should default to error severity")
	}
}

// TestCatalogSorted pins the `hdlint -codes` contract: the catalog lists
// codes in strictly increasing order.
func TestCatalogSorted(t *testing.T) {
	for i := 1; i < len(Catalog); i++ {
		if Catalog[i-1].Code >= Catalog[i].Code {
			t.Errorf("catalog out of order: %s before %s", Catalog[i-1].Code, Catalog[i].Code)
		}
	}
}

func TestDiagnosticStringFormat(t *testing.T) {
	d := Diagnostic{
		Code: "HD202", Severity: SevWarning, File: "a.c",
		Pos: minic.Pos{Line: 3, Col: 7}, Message: "dead store", Fix: "remove it",
	}
	want := "a.c:3:7: warning: [HD202] dead store (fix: remove it)"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestEventExtractionCompoundAssign(t *testing.T) {
	prog := mustParse(t, `int main() { int a = 1; a += 2; return a; }`)
	var evs []event
	for _, b := range ir.Build(prog.Func("main")).Blocks {
		for _, n := range b.Nodes {
			evs = append(evs, nodeEvents(n)...)
		}
	}
	// Expect: write(a) [decl], read(a)+write(a) [compound], read(a) [return].
	var kinds []evKind
	for _, ev := range evs {
		if ev.sym != nil && ev.sym.Name == "a" {
			kinds = append(kinds, ev.kind)
		}
	}
	want := []evKind{evWrite, evRead, evWrite, evRead}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events for a, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// The compound write must not be a plain-store candidate.
	for _, ev := range evs {
		if ev.kind == evWrite && ev.plainStore && ev.pos.Line == 1 && ev.sym.Name == "a" && !ev.constRHS {
			t.Errorf("compound assignment flagged as plain store")
		}
	}
}

func TestBuiltinArgDirections(t *testing.T) {
	// strcpy writes through arg 0 and reads arg 1; strcmp reads both.
	prog := mustParse(t, `int main() {
	char dst[8], src[8];
	strcpy(src, "a");
	strcpy(dst, src);
	return strcmp(dst, src);
}`)
	diags := Analyze(prog)
	if len(diags) != 0 {
		t.Errorf("clean string program produced %v", codes(diags))
	}
}

func TestUninitReportedOnOneBranchOnly(t *testing.T) {
	prog := mustParse(t, `int main(int argc) {
	int x;
	if (argc > 1) { x = 1; }
	return x;
}`)
	diags := Analyze(prog)
	if got := strings.Join(codes(diags), " "); got != "HD201" {
		t.Errorf("diagnostics = %q, want HD201 (maybe-uninit through else branch)", got)
	}
}

// TestInfiniteForFindings pins HD2xx on for(;;), which has no exit edge:
// code after such a loop runs only when a break reaches it.
func TestInfiniteForFindings(t *testing.T) {
	cases := []struct{ src, want string }{
		{`int main() {
	int y;
	for (;;) {
		y = 1;
	}
	return y;
}`, "4:5 HD204, 6:2 HD602"},
		{`int main() {
	int y;
	int n = 0;
	for (;;) {
		n++;
		if (n > 3) break;
		y = n;
	}
	return y;
}`, "9:9 HD201"},
	}
	for _, c := range cases {
		var got []string
		for _, d := range Analyze(mustParse(t, c.src)) {
			got = append(got, fmt.Sprintf("%d:%d %s", d.Pos.Line, d.Pos.Col, d.Code))
		}
		if s := strings.Join(got, ", "); s != c.want {
			t.Errorf("findings = %q, want %q for\n%s", s, c.want, c.src)
		}
	}
}

func TestLoopCarriedNotFlaggedForWriteFirst(t *testing.T) {
	prog := mustParse(t, `int main() {
	char *line; size_t n = 10; int read, k, v;
	line = (char*) malloc(10);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = read; v = k + 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`)
	diags := Analyze(prog)
	if len(diags) != 0 {
		t.Errorf("write-first region produced %v", codes(diags))
	}
}

func TestAnalyzeKernelFlagsNestedGetRecord(t *testing.T) {
	// Build a fake kernel region: while (flag) { if (getRecord(&line)) {} }
	prog := mustParse(t, `int main() {
	char *line; int flag = 1;
	line = (char*) 0;
	while (flag) {
		if (getRecord(&line)) { flag = 0; }
	}
	return 0;
}`)
	fn := prog.Func("main")
	k := &Kernel{File: "k.c", Region: fn.Body, Spaces: map[*minic.Symbol]MemSpace{}}
	diags := AnalyzeKernel(k)
	if got := strings.Join(codes(diags), " "); got != "HD401" {
		t.Errorf("diagnostics = %q, want HD401", got)
	}
}

func TestAnalyzeKernelTopLevelGetRecordLegal(t *testing.T) {
	prog := mustParse(t, `int main() {
	char *line;
	line = (char*) 0;
	while (getRecord(&line) != -1) {
		emitKV(line, line);
	}
	return 0;
}`)
	fn := prog.Func("main")
	k := &Kernel{File: "k.c", Region: fn.Body, Spaces: map[*minic.Symbol]MemSpace{}}
	if diags := AnalyzeKernel(k); len(diags) != 0 {
		t.Errorf("top-level getRecord flagged: %v", codes(diags))
	}
}

// constIntValue folds with the interpreter's operators and conversions:
// (char)260 stores as 4, so table[(char)260] is in bounds for int[8].
func TestConstIntValueFolding(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want int64
		ok   bool
	}{
		{"2 * 3 + 1", 7, true},
		{"(char)260", 4, true},
		{"(int)2.9 + (1 << 3)", 10, true},
		{"7 / 0", 0, false}, // traps at run time
	} {
		prog := mustParse(t, `int main() { int a[10]; a[0] = `+tc.expr+`; return a[0]; }`)
		var got int64
		found := false
		minic.WalkExprs(prog.Func("main").Body, func(e minic.Expr) bool {
			if as, ok := e.(*minic.Assign); ok {
				got, found = constIntValue(as.R)
			}
			return true
		})
		if found != tc.ok || got != tc.want {
			t.Errorf("constIntValue(%s) = %d, %v; want %d, %v", tc.expr, got, found, tc.want, tc.ok)
		}
	}
}
