package minic

import (
	"fmt"
	"strings"
	"testing"
)

func TestLexBasicTokens(t *testing.T) {
	toks, err := Lex(`int x = 42; char c = 'a'; double d = 3.5e2; char *s = "hi\n";`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "int" {
		t.Fatalf("first token = %v", toks[0])
	}
	found := map[TokKind]bool{}
	for _, k := range kinds {
		found[k] = true
	}
	for _, want := range []TokKind{TokKeyword, TokIdent, TokIntLit, TokCharLit, TokFloatLit, TokStrLit, TokPunct, TokEOF} {
		if !found[want] {
			t.Errorf("missing token kind %v in %v", want, kinds)
		}
	}
}

func TestLexLiteralValues(t *testing.T) {
	toks, err := Lex(`42 0x1F 3.5 1e3 'x' '\n' '\0' "a\tb"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].IntVal != 42 {
		t.Errorf("42 -> %d", toks[0].IntVal)
	}
	if toks[1].IntVal != 31 {
		t.Errorf("0x1F -> %d", toks[1].IntVal)
	}
	if toks[2].FloatVal != 3.5 {
		t.Errorf("3.5 -> %v", toks[2].FloatVal)
	}
	if toks[3].FloatVal != 1000 {
		t.Errorf("1e3 -> %v", toks[3].FloatVal)
	}
	if toks[4].IntVal != 'x' {
		t.Errorf("'x' -> %d", toks[4].IntVal)
	}
	if toks[5].IntVal != '\n' {
		t.Errorf("'\\n' -> %d", toks[5].IntVal)
	}
	if toks[6].IntVal != 0 {
		t.Errorf("'\\0' -> %d", toks[6].IntVal)
	}
	if toks[7].Text != "a\tb" {
		t.Errorf("string -> %q", toks[7].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("int a; // comment\n/* block\ncomment */ int b;")
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			idents = append(idents, tk.Text)
		}
	}
	if len(idents) != 2 || idents[0] != "a" || idents[1] != "b" {
		t.Fatalf("idents = %v", idents)
	}
}

func TestLexPragmaWithContinuation(t *testing.T) {
	src := "#pragma mapreduce mapper key(word) \\\\\n value(one)\nint x;"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokPragma {
		t.Fatalf("first token = %v", toks[0])
	}
	if !strings.Contains(toks[0].Text, "key(word)") || !strings.Contains(toks[0].Text, "value(one)") {
		t.Fatalf("pragma text = %q", toks[0].Text)
	}
}

func TestLexSkipsInclude(t *testing.T) {
	toks, err := Lex("#include <stdio.h>\nint main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "int" {
		t.Fatalf("include not skipped: %v", toks[0])
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("int a;\nint b;\n  int c;")
	if err != nil {
		t.Fatal(err)
	}
	var positions []Pos
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			positions = append(positions, tk.Pos)
		}
	}
	if positions[0].Line != 1 || positions[1].Line != 2 || positions[2].Line != 3 {
		t.Fatalf("positions = %v", positions)
	}
	if positions[2].Col != 7 {
		t.Fatalf("col of c = %d, want 7", positions[2].Col)
	}
}

func TestParseSimpleFunction(t *testing.T) {
	prog, err := ParseAndCheck(`
int add(int a, int b) {
	return a + b;
}
int main() {
	int x = add(2, 3);
	return x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(prog.Funcs))
	}
	add := prog.Func("add")
	if add == nil || len(add.Params) != 2 {
		t.Fatalf("add = %+v", add)
	}
	if add.Ret.Kind != TypeInt {
		t.Fatalf("ret = %v", add.Ret)
	}
}

func TestParseDeclarationForms(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	char word[30], *line;
	int a = 1, b = 2, c;
	double m[4][2];
	unsigned int u;
	size_t n = 100;
	const int k = 5;
	c = a + b;
	return c;
}`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("main").Body
	d := body.Stmts[0].(*DeclStmt)
	if d.Decls[0].Type.Kind != TypeArray || d.Decls[0].Type.Len != 30 {
		t.Fatalf("word type = %v", d.Decls[0].Type)
	}
	if d.Decls[1].Type.Kind != TypePointer {
		t.Fatalf("line type = %v", d.Decls[1].Type)
	}
	m := body.Stmts[2].(*DeclStmt).Decls[0]
	if m.Type.Kind != TypeArray || m.Type.Elem.Kind != TypeArray {
		t.Fatalf("matrix type = %v", m.Type)
	}
}

func TestParsePragmaAttachesToWhile(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	int x = 0;
	#pragma mapreduce mapper key(x) value(x)
	while (x < 10) {
		x = x + 1;
	}
	return x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	pragmas := FindPragmas(prog)
	if len(pragmas) != 1 {
		t.Fatalf("pragmas = %d", len(pragmas))
	}
	if !pragmas[0].IsMapReduce() {
		t.Fatal("pragma not recognized as mapreduce")
	}
	if _, ok := pragmas[0].Body.(*While); !ok {
		t.Fatalf("pragma body = %T, want *While", pragmas[0].Body)
	}
}

func TestParsePragmaAttachesToBlock(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	int count = 0;
	#pragma mapreduce combiner key(count) value(count) keyin(count) valuein(count)
	{
		while (count < 3) { count++; }
	}
	return count;
}`)
	if err != nil {
		t.Fatal(err)
	}
	pragmas := FindPragmas(prog)
	if len(pragmas) != 1 {
		t.Fatalf("pragmas = %d", len(pragmas))
	}
	if _, ok := pragmas[0].Body.(*Block); !ok {
		t.Fatalf("pragma body = %T, want *Block", pragmas[0].Body)
	}
}

func TestParseControlFlow(t *testing.T) {
	_, err := ParseAndCheck(`
int main() {
	int i, total = 0;
	for (i = 0; i < 10; i++) {
		if (i % 2 == 0) continue;
		else total += i;
		while (total > 100) { total -= 10; break; }
	}
	for (int j = 0; j < 3; j++) total++;
	for (;;) { break; }
	return total;
}`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseExpressions(t *testing.T) {
	_, err := ParseAndCheck(`
int main() {
	int a = 1, b = 2;
	int c = a < b ? a : b;
	int d = (a + b) * 3 / 2 % 5 - 1;
	int e = a << 2 | b >> 1 & 3 ^ 7;
	int f = !a && b || a;
	a += 1; b -= 2; c *= 3; d /= 2; e %= 3;
	f = -a + ~b;
	long n = sizeof(int) + sizeof(double);
	char buf[10];
	char *p = (char*) malloc(10 * sizeof(char));
	*p = 'x';
	p[1] = buf[0];
	++a; --b; a++; b--;
	free(p);
	return f + (int)n;
}`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParsePointerOps(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	int x = 5;
	int *p = &x;
	int **pp = &p;
	*p = 7;
	**pp = 9;
	int y = *p + 1;
	return y;
}`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestCheckRejectsUndeclared(t *testing.T) {
	_, err := ParseAndCheck(`int main() { return nothere; }`)
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsRedeclaration(t *testing.T) {
	_, err := ParseAndCheck(`int main() { int a; int a; return 0; }`)
	if err == nil || !strings.Contains(err.Error(), "redeclaration") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckAllowsShadowingInInnerScope(t *testing.T) {
	_, err := ParseAndCheck(`int main() { int a = 1; { int a = 2; a++; } return a; }`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsUndefinedFunction(t *testing.T) {
	_, err := ParseAndCheck(`int main() { return mystery(1); }`)
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsWrongArity(t *testing.T) {
	_, err := ParseAndCheck(`
int two(int a, int b) { return a + b; }
int main() { return two(1); }`)
	if err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsBreakOutsideLoop(t *testing.T) {
	_, err := ParseAndCheck(`int main() { break; return 0; }`)
	if err == nil {
		t.Fatal("break outside loop accepted")
	}
}

// TestCheckRejectsInitializedEmptyArray pins that an array of no cells
// cannot take an initializer, which both executors store in its first
// cell; one without an initializer is still accepted.
func TestCheckRejectsInitializedEmptyArray(t *testing.T) {
	for _, src := range []string{
		`int main() { int A[0] = (""); return 0; }`,
		`int g[2][0] = 1; int main() { return 0; }`,
	} {
		_, err := ParseAndCheck(src)
		if err == nil || !strings.Contains(err.Error(), "of length 0 has an initializer") {
			t.Errorf("%q: err = %v", src, err)
		}
	}
	if _, err := ParseAndCheck(`int main() { int A[0]; return 0; }`); err != nil {
		t.Errorf("empty array without an initializer: %v", err)
	}
}

func TestCheckRejectsAssignToNonLvalue(t *testing.T) {
	_, err := ParseAndCheck(`int main() { int a; (a + 1) = 2; return 0; }`)
	if err == nil {
		t.Fatal("assignment to rvalue accepted")
	}
}

func TestCheckBuiltinsResolve(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	char buf[64];
	strcpy(buf, "hi");
	int n = strlen(buf);
	double r = sqrt(2.0) + exp(1.0);
	printf("%s %d %f\n", buf, n, r);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestCheckTypesExpressions(t *testing.T) {
	prog, err := ParseAndCheck(`
int main() {
	int i = 1;
	double d = 2.5;
	char c = 'x';
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	decls := prog.Func("main").Body.Stmts
	i := decls[0].(*DeclStmt).Decls[0]
	if i.Init.Type().Kind != TypeInt {
		t.Errorf("int literal type = %v", i.Init.Type())
	}
	d := decls[1].(*DeclStmt).Decls[0]
	if d.Init.Type().Kind != TypeDouble {
		t.Errorf("float literal type = %v", d.Init.Type())
	}
}

func TestWordcountListingParses(t *testing.T) {
	// Adapted from Listing 1 of the paper.
	src := `
int getWord(char *line, int offset, char *word, int read, int maxw) {
	int i = offset, j = 0;
	while (i < read && (line[i] == ' ' || line[i] == '\n')) i++;
	while (i < read && line[i] != ' ' && line[i] != '\n' && j < maxw - 1) {
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
	prog, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	pragmas := FindPragmas(prog)
	if len(pragmas) != 1 {
		t.Fatalf("pragmas = %d", len(pragmas))
	}
}

func TestTypeStringAndSize(t *testing.T) {
	cases := []struct {
		t    *Type
		str  string
		size int
	}{
		{IntType, "int", 4},
		{CharType, "char", 1},
		{DoubleType, "double", 8},
		{PointerTo(CharType), "char*", 8},
		{ArrayOf(IntType, 10), "int[10]", 40},
		{ArrayOf(CharType, 30), "char[30]", 30},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.t, got, c.str)
		}
		if got := c.t.Size(); got != c.size {
			t.Errorf("Size(%v) = %d, want %d", c.t, got, c.size)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !PointerTo(CharType).Equal(PointerTo(CharType)) {
		t.Error("identical pointer types unequal")
	}
	if PointerTo(CharType).Equal(PointerTo(IntType)) {
		t.Error("different pointer types equal")
	}
	if ArrayOf(IntType, 3).Equal(ArrayOf(IntType, 4)) {
		t.Error("different array lengths equal")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`int main() { int 3x; }`,
		`int main() { return (; }`,
		`int main() { if x { } }`,
		`int main() {`,
		`int main() { do { } while(1); }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{"\"unterminated", "'a", "@", "#define X 1"}
	for _, src := range bad {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestScanClausesKeepsDuplicates(t *testing.T) {
	cls := ScanClauses("mapreduce mapper key(a) key(b) firstprivate(x, y)")
	var names []string
	for _, c := range cls {
		names = append(names, c.Name)
	}
	want := "mapreduce mapper key key firstprivate"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("clause names = %q, want %q", got, want)
	}
	if got := strings.Join(cls[4].Args, ","); got != "x,y" {
		t.Errorf("firstprivate args = %q, want x,y", got)
	}
	for _, c := range cls {
		if c.Stray || c.Unclosed {
			t.Errorf("well-formed clause %q marked bad", c.Name)
		}
	}
}

func TestScanClausesMarksUnbalanced(t *testing.T) {
	cls := ScanClauses("mapreduce mapper key(a, b")
	last := cls[len(cls)-1]
	if !last.Unclosed || last.Stray || last.Name != "key" || last.Off != 17 {
		t.Errorf("unclosed clause = %+v, want key at offset 17 marked Unclosed", last)
	}
	if got := strings.Join(last.Args, ","); got != "a,b" {
		t.Errorf("unclosed clause args = %q, want a,b", got)
	}
}

// TestScanClausesMarksStray: a character that starts no clause becomes its
// own bad piece with its offset, and scanning resumes after it.
func TestScanClausesMarksStray(t *testing.T) {
	cls := ScanClauses("mapreduce mapper $ key(a))")
	var got []string
	for _, c := range cls {
		got = append(got, fmt.Sprintf("%s@%d:%v", c.Name, c.Off, c.Stray))
	}
	want := "mapreduce@0:false mapper@10:false $@17:true key@19:false )@25:true"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("pieces = %q, want %q", s, want)
	}
}
