package compiler

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestParseDirectiveErrorMessages pins the exact diagnostic for every
// malformed-pragma class: the messages are part of the user interface
// (hdcc and hdlint print them verbatim) and must name the offending
// clause and pragma.
func TestParseDirectiveErrorMessages(t *testing.T) {
	cases := []struct{ text, want string }{
		{
			"omp parallel for",
			`compiler: not a mapreduce pragma: "omp parallel for"`,
		},
		{
			"mapreduce key(a) value(b)",
			`compiler: pragma "mapreduce key(a) value(b)" has neither mapper nor combiner clause`,
		},
		{
			"mapreduce mapper value(b)",
			"compiler: mapper pragma missing required key clause",
		},
		{
			"mapreduce combiner key(a) value(b)",
			"compiler: combiner pragma requires keyin and valuein clauses",
		},
		{
			"mapreduce mapper key(a) value(b) keyin(c) valuein(d)",
			"compiler: keyin/valuein are valid only on the combiner",
		},
		{
			"mapreduce mapper key(a) value(b) bogus(c)",
			`compiler: unknown clause "bogus" in pragma "mapreduce mapper key(a) value(b) bogus(c)"`,
		},
		{
			"mapreduce mapper key(a) key(b) value(c)",
			`compiler: duplicate clause "key" in pragma "mapreduce mapper key(a) key(b) value(c)"`,
		},
		{
			"mapreduce mapper key(a, b) value(c)",
			`compiler: clause "key" wants exactly one argument, got [a b]`,
		},
		{
			"mapreduce mapper key(a) value(b) keylength(notanumber)",
			`compiler: clause "keylength" wants an integer literal, got "notanumber"`,
		},
		{
			"mapreduce mapper key(a) value(b) keylength(-3)",
			`compiler: clause "keylength" must be non-negative, got -3`,
		},
		{
			"mapreduce mapper key(a value(b)",
			`compiler: unbalanced parentheses in pragma "mapreduce mapper key(a value(b)"`,
		},
		{
			"mapreduce mapper key(a) $ value(b)",
			`compiler: malformed pragma near "$ value(b)"`,
		},
		{
			"mapreduce mapper key(a)) value(b)",
			`compiler: malformed pragma near ") value(b)"`,
		},
		{
			// The first malformed piece decides the message.
			"mapreduce mapper $ key(a",
			`compiler: malformed pragma near "$ key(a"`,
		},
		{
			"mapreduce mapper key(a) value(b) threads(",
			`compiler: unbalanced parentheses in pragma "mapreduce mapper key(a) value(b) threads("`,
		},
	}
	for _, tc := range cases {
		_, err := ParseDirective(tc.text)
		if err == nil {
			t.Errorf("ParseDirective(%q) succeeded, want %q", tc.text, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("ParseDirective(%q):\n got %q\nwant %q", tc.text, err.Error(), tc.want)
		}
	}
}

// TestBadPragmaPositionReported: a malformed pragma inside a full program
// surfaces as a positioned HD101 diagnostic pointing at the pragma's own
// line, not at some later token.
func TestBadPragmaPositionReported(t *testing.T) {
	src := `int main() {
	int k, v;
	#pragma mapreduce mapper key(k) value(v) bogus(x)
	{
		k = 1; v = 2;
		printf("%d\t%d\n", k, v);
	}
	return 0;
}`
	diags := Lint("job.c", src)
	var hit *analysis.Diagnostic
	for i := range diags {
		if diags[i].Code == "HD101" {
			hit = &diags[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no HD101 diagnostic for a bogus clause; got %v", diags)
	}
	if hit.Pos.Line != 3 {
		t.Errorf("HD101 points at line %d, want 3", hit.Pos.Line)
	}
	if !strings.Contains(hit.String(), "job.c:3") {
		t.Errorf("rendered diagnostic does not carry job.c:3: %q", hit.String())
	}
	if !strings.Contains(hit.Message, `"bogus"`) {
		t.Errorf("diagnostic does not name the bad clause: %q", hit.Message)
	}
}
