package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// This file is the hdlint bug corpus: one minimal MiniC program per
// diagnostic code, asserted to trigger exactly that diagnostic and nothing
// else, plus a fixed twin asserted to lint completely clean. Together with
// the benchmark cleanliness test this pins both directions of every check.

// cleanMapper is the minimal lint-clean mapper; corpus entries perturb it.
func cleanMapper(pragma string) string {
	return `int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	` + pragma + `
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`
}

// cleanCombiner is the minimal lint-clean combiner (accumulating value).
const cleanCombiner = `int main() {
	int key, val, pk, pv, read;
	pk = 0; pv = 0;
	#pragma mapreduce combiner key(pk) value(pv) keyin(key) valuein(val) firstprivate(pk, pv)
	{
		while ((read = scanf("%d %d", &key, &val)) == 2) {
			pk = key;
			pv = pv + val;
		}
		printf("%d\t%d\n", pk, pv);
	}
	return 0;
}`

const basePragma = "#pragma mapreduce mapper key(k) value(v)"

var lintCorpus = []struct {
	code  string
	src   string // triggers exactly one diagnostic, with this code
	clean string // the fixed twin: zero diagnostics
}{
	{
		code:  "HD001",
		src:   `int main() { return x; }`,
		clean: `int main() { return 0; }`,
	},
	{
		// A mapper on a for loop passes every source check but cannot be
		// translated (region-shape rule).
		code: "HD002",
		src: `int main() {
	int read, k, v;
	#pragma mapreduce mapper key(k) value(v)
	for (read = 0; read < 3; read++) {
		k = read; v = 1;
		printf("%d\t%d\n", k, v);
	}
	return 0;
}`,
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD101",
		src:   cleanMapper("#pragma mapreduce mapper key(k) value(v) bogus(k)"),
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD102",
		src:   cleanMapper("#pragma mapreduce mapper key(k) key(k) value(v)"),
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD103",
		src:   cleanMapper("#pragma mapreduce key(k) value(v)"),
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD104",
		src:   cleanMapper("#pragma mapreduce mapper key(k)"),
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD105",
		src:   cleanMapper("#pragma mapreduce mapper key(k) value(v) keyin(k)"),
		clean: cleanMapper(basePragma),
	},
	{
		code:  "HD106",
		src:   cleanMapper("#pragma mapreduce mapper key(zzz) value(v)"),
		clean: cleanMapper(basePragma),
	},
	{
		code: "HD107",
		src: `int main() {
	char *line; size_t n = 100; char k[30]; int read, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v) keylength(64)
	while ((read = getline(&line, &n, stdin)) != -1) {
		strcpy(k, "a");
		v = 1;
		printf("%s\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `int main() {
	char *line; size_t n = 100; char k[30]; int read, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v) keylength(30)
	while ((read = getline(&line, &n, stdin)) != -1) {
		strcpy(k, "a");
		v = 1;
		printf("%s\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		// printf emits a file-scope global where the directive declares
		// key(k): the wire output silently disagrees with the schema.
		code: "HD108",
		src: `int other = 3;
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = k + 1;
		printf("%d\t%d\n", other, v);
	}
	free(line);
	return 0;
}`,
		clean: `int other = 3;
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = k + 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		// The combiner's output value is overwritten, never accumulated:
		// it would emit the last input instead of the combined one.
		code: "HD109",
		src: `int main() {
	int key, val, pk, pv, read;
	pk = 0; pv = 0;
	#pragma mapreduce combiner key(pk) value(pv) keyin(key) valuein(val) firstprivate(pk, pv)
	{
		while ((read = scanf("%d %d", &key, &val)) == 2) {
			pk = key;
			pv = val;
		}
		printf("%d\t%d\n", pk, pv);
	}
	return 0;
}`,
		clean: cleanCombiner,
	},
	{
		code: "HD110",
		src: `int gk = 1;
int gv = 2;
int main() {
	char *line; size_t n = 100; int read;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(gk) value(gv)
	while ((read = getline(&line, &n, stdin)) != -1) {
	}
	free(line);
	return 0;
}`,
		clean: `int gk = 1;
int gv = 2;
int main() {
	char *line; size_t n = 100; int read;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(gk) value(gv)
	while ((read = getline(&line, &n, stdin)) != -1) {
		printf("%d\t%d\n", gk, gv);
	}
	free(line);
	return 0;
}`,
	},
	{
		code: "HD201",
		src: `int main() {
	int x;
	int y;
	y = x + 1;
	return y;
}`,
		clean: `int main() {
	int x = 3;
	int y;
	y = x + 1;
	return y;
}`,
	},
	{
		code: "HD202",
		src: `int main() {
	int a, b;
	b = 2;
	a = b + 1;
	a = 5;
	return a;
}`,
		clean: `int main() {
	int a, b;
	b = 2;
	a = b + 1;
	return a;
}`,
	},
	{
		code: "HD203",
		src: `int main() {
	int unused;
	return 0;
}`,
		clean: `int main() {
	int used = 1;
	return used;
}`,
	},
	{
		code: "HD204",
		src: `int main() {
	int x;
	x = 0;
	x = 5;
	return x;
}`,
		clean: `int main() {
	int x;
	x = 5;
	return x;
}`,
	},
	{
		// total carries a running sum across records; per-thread
		// privatization would silently compute partial sums.
		code: "HD301",
		src: `int main() {
	char *line; size_t n = 100; int read, k, v, total;
	line = (char*) malloc(100);
	total = 0;
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		total = total + read;
		k = 1; v = total;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `int main() {
	char *line; size_t n = 100; int read, k, v, total;
	line = (char*) malloc(100);
	total = 0;
	#pragma mapreduce mapper key(k) value(v) firstprivate(total)
	while ((read = getline(&line, &n, stdin)) != -1) {
		total = total + read;
		k = 1; v = total;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		code: "HD302",
		src: `int main() {
	char *line; size_t n = 100; char pat[8]; int read, k, v;
	line = (char*) malloc(100);
	strcpy(pat, "x");
	#pragma mapreduce mapper key(k) value(v) sharedRO(pat)
	while ((read = getline(&line, &n, stdin)) != -1) {
		pat[0] = 'y';
		k = 1; v = 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `int main() {
	char *line; size_t n = 100; char pat[8]; int read, k, v;
	line = (char*) malloc(100);
	strcpy(pat, "x");
	#pragma mapreduce mapper key(k) value(v) sharedRO(pat)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = pat[0]; v = 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		// The KV read sits under an if inside the loop body: after
		// translation, getKV would run under thread-divergent control flow.
		code: "HD401",
		src: `int main() {
	int key, val, pk, pv, read, flag;
	pk = 0; pv = 0; flag = 1;
	#pragma mapreduce combiner key(pk) value(pv) keyin(key) valuein(val) firstprivate(pk, pv)
	{
		while (flag) {
			if ((read = scanf("%d %d", &key, &val)) != 2) {
				flag = 0;
			} else {
				pk = key;
				pv = pv + val;
			}
		}
		printf("%d\t%d\n", pk, pv);
	}
	return 0;
}`,
		clean: cleanCombiner,
	},
	{
		// A file-scope global is written from the region; Algorithm 1
		// places globals in read-only constant memory, so every thread
		// would race and the result never reaches the host.
		code: "HD402",
		src: `int total = 0;
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		total = read;
		k = 1; v = 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `int total = 7;
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = total;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		code: "HD403",
		src: `double cent[4];
int main() {
	char *line; size_t n = 100; int read, k; double v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v) texture(cent)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1;
		v = cent[7];
		printf("%d\t%f\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `double cent[4];
int main() {
	char *line; size_t n = 100; int read, k; double v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v) texture(cent)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1;
		v = cent[2];
		printf("%d\t%f\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		code: "HD501",
		src: `int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = 1;
		printf("%d\t%d\n", k, v);
		free(line);
	}
	return 0;
}`,
		clean: cleanMapper(basePragma),
	},
	{
		code: "HD502",
		src: `int boom(int x) {
	if (x > 3) exit(1);
	return x + 1;
}
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = boom(read);
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
		clean: `int calm(int x) {
	return x + 1;
}
int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(k) value(v)
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = calm(read);
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`,
	},
	{
		// A non-literal condition SCCP proves constant. The clean twin gets
		// its value from a call, which the lattice cannot see through.
		code: "HD601",
		src: `int main() {
	int n = 3;
	if (n > 2) { printf("big\n"); }
	return 0;
}`,
		clean: `int opaque() { return 3; }
int main() {
	int n = opaque();
	if (n > 2) { printf("big\n"); }
	return 0;
}`,
	},
	{
		// Code after an unconditional return never executes.
		code: "HD602",
		src: `int main() {
	printf("live\n");
	return 0;
	printf("dead\n");
	return 1;
}`,
		clean: `int main() {
	printf("live\n");
	return 0;
}`,
	},
	{
		// The second initializer recomputes the first, value-numbered over
		// SSA. The clean twin perturbs one operand.
		code: "HD603",
		src: `int opaque() { return 3; }
int main() {
	int v = opaque();
	int a = v * 10 + 1;
	int b = v * 10 + 1;
	printf("%d %d\n", a, b);
	return 0;
}`,
		clean: `int opaque() { return 3; }
int main() {
	int v = opaque();
	int a = v * 10 + 1;
	int b = v * 10 + 2;
	printf("%d %d\n", a, b);
	return 0;
}`,
	},
	{
		// The loop prints a value no iteration changes.
		code: "HD604",
		src: `int opaque() { return 3; }
int main() {
	int k = opaque();
	int i = 0;
	while (i < 3) {
		printf("%d\n", k);
		i = i + 1;
	}
	return 0;
}`,
		clean: `int opaque() { return 3; }
int main() {
	int k = opaque();
	int i = 0;
	while (i < 3) {
		printf("%d\n", k + i);
		i = i + 1;
	}
	return 0;
}`,
	},
	{
		// A constant subscript past the end of a fixed array (the source
		// level generalization of HD403, which only sees kernel arrays).
		code: "HD605",
		src: `int main() {
	int a[4];
	a[0] = 5;
	printf("%d\n", a[7]);
	return 0;
}`,
		clean: `int main() {
	int a[4];
	a[0] = 5;
	printf("%d\n", a[0]);
	return 0;
}`,
	},
}

func TestLintCorpus(t *testing.T) {
	for _, c := range lintCorpus {
		t.Run(c.code, func(t *testing.T) {
			diags := analysis.Lint(c.code+".c", c.src)
			if len(diags) != 1 {
				var lines []string
				for _, d := range diags {
					lines = append(lines, d.String())
				}
				t.Fatalf("got %d diagnostics, want exactly 1 (%s):\n%s",
					len(diags), c.code, strings.Join(lines, "\n"))
			}
			if diags[0].Code != c.code {
				t.Fatalf("got %s, want %s: %s", diags[0].Code, c.code, diags[0])
			}
			if diags[0].Pos.Line == 0 && c.code != "HD001" {
				t.Errorf("%s: diagnostic carries no position: %s", c.code, diags[0])
			}
			clean := analysis.Lint(c.code+"-clean.c", c.clean)
			if len(clean) != 0 {
				var lines []string
				for _, d := range clean {
					lines = append(lines, d.String())
				}
				t.Errorf("clean twin not clean:\n%s", strings.Join(lines, "\n"))
			}
		})
	}
}

// TestLintCorpusCoversCatalog keeps the corpus and the catalog in sync:
// every documented code must have a corpus entry.
func TestLintCorpusCoversCatalog(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range lintCorpus {
		covered[c.code] = true
	}
	for _, info := range analysis.Catalog {
		if !covered[info.Code] {
			t.Errorf("catalog code %s has no corpus entry", info.Code)
		}
	}
}
