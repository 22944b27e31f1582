package compiler

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/minic"
)

const wordcountMapSrc = `
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
	#pragma mapreduce mapper key(word) value(one) keylength(30) kvpairs(64)
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

const wordcountCombineSrc = `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
	#pragma mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) keylength(30) firstprivate(prevWord, count)
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

func TestParseDirectiveMapper(t *testing.T) {
	d, err := ParseDirective("mapreduce mapper key(word) value(one) keylength(30) vallength(4) kvpairs(16) blocks(32) threads(64)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != RegionMapper {
		t.Errorf("kind = %v", d.Kind)
	}
	if d.Key != "word" || d.Value != "one" {
		t.Errorf("key/value = %q/%q", d.Key, d.Value)
	}
	if d.KeyLength != 30 || d.ValLength != 4 {
		t.Errorf("lengths = %d/%d", d.KeyLength, d.ValLength)
	}
	if d.KVPairs != 16 || d.Blocks != 32 || d.Threads != 64 {
		t.Errorf("kvpairs/blocks/threads = %d/%d/%d", d.KVPairs, d.Blocks, d.Threads)
	}
}

func TestParseDirectiveCombiner(t *testing.T) {
	d, err := ParseDirective("mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) firstprivate(prevWord, count)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != RegionCombiner {
		t.Errorf("kind = %v", d.Kind)
	}
	if d.KeyIn != "word" || d.ValueIn != "val" {
		t.Errorf("keyin/valuein = %q/%q", d.KeyIn, d.ValueIn)
	}
	if len(d.FirstPrivate) != 2 || d.FirstPrivate[0] != "prevWord" || d.FirstPrivate[1] != "count" {
		t.Errorf("firstprivate = %v", d.FirstPrivate)
	}
}

func TestParseDirectiveSharedROAndTexture(t *testing.T) {
	d, err := ParseDirective("mapreduce mapper key(k) value(v) sharedRO(a, b) texture(centroids)")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SharedRO) != 2 || len(d.Texture) != 1 {
		t.Errorf("sharedRO=%v texture=%v", d.SharedRO, d.Texture)
	}
}

func TestParseDirectiveErrors(t *testing.T) {
	bad := []string{
		"mapreduce key(a) value(b)",                              // no mapper/combiner
		"mapreduce mapper value(b)",                              // no key
		"mapreduce mapper key(a)",                                // no value
		"mapreduce combiner key(a) value(b)",                     // no keyin/valuein
		"mapreduce mapper key(a) value(b) keyin(c) valuein(d)",   // keyin on mapper
		"mapreduce mapper key(a) value(b) bogus(c)",              // unknown clause
		"mapreduce mapper key(a) value(b) keylength(notanumber)", // non-int
		"mapreduce mapper key(a) value(b) keylength(-3)",         // negative
		"omp parallel for",                                       // not mapreduce
		"mapreduce mapper key(a, b) value(c)",                    // multi-arg key
	}
	for _, text := range bad {
		if _, err := ParseDirective(text); err == nil {
			t.Errorf("ParseDirective(%q) succeeded, want error", text)
		}
	}
}

func TestCompileWordcountMapper(t *testing.T) {
	c, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	spec := c.Kernel
	if spec.Kind != RegionMapper {
		t.Fatalf("kind = %v", spec.Kind)
	}
	if spec.KVPairs != 64 {
		t.Errorf("kvpairs = %d", spec.KVPairs)
	}
	if spec.Blocks != DefaultBlocks || spec.Threads != DefaultThreads {
		t.Errorf("launch = %dx%d", spec.Blocks, spec.Threads)
	}
	// Schema: char[30] key, int value.
	if c.Schema.KeyKind != kv.Bytes || c.Schema.KeyLen != 30 {
		t.Errorf("key schema = %v/%d", c.Schema.KeyKind, c.Schema.KeyLen)
	}
	if c.Schema.ValKind != kv.Int {
		t.Errorf("val schema = %v", c.Schema.ValKind)
	}
	if !spec.VectorKey {
		t.Error("array key should be vector-eligible")
	}
	if spec.VectorVal {
		t.Error("scalar value should not be vector-eligible")
	}
}

func TestCompileRewritesCalls(t *testing.T) {
	c, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	names := callNames(c.Kernel.Region)
	if names["getline"] > 0 {
		t.Error("getline not replaced in GPU region")
	}
	if names["getRecord"] != 1 {
		t.Errorf("getRecord calls = %d, want 1", names["getRecord"])
	}
	if names["printf"] > 0 {
		t.Error("printf not replaced in GPU region")
	}
	if names["emitKV"] != 1 {
		t.Errorf("emitKV calls = %d, want 1", names["emitKV"])
	}
	// Host program untouched.
	hostPragmas := minic.FindPragmas(c.HostProg)
	hostNames := callNames(hostPragmas[0].Body)
	if hostNames["getline"] != 1 || hostNames["printf"] != 1 {
		t.Errorf("host program was mutated: %v", hostNames)
	}
}

func TestCompileCombinerRewrites(t *testing.T) {
	c, err := Compile(wordcountCombineSrc)
	if err != nil {
		t.Fatal(err)
	}
	names := callNames(c.Kernel.Region)
	if names["scanf"] > 0 || names["getKV"] != 1 {
		t.Errorf("scanf rewrite wrong: %v", names)
	}
	if names["printf"] > 0 || names["storeKV"] != 2 {
		t.Errorf("printf rewrite wrong: %v", names)
	}
	if names["strcmp"] > 0 || names["strcmpGPU"] != 1 {
		t.Errorf("strcmp rewrite wrong: %v", names)
	}
	if names["strcpy"] > 0 || names["strcpyGPU"] != 1 {
		t.Errorf("strcpy rewrite wrong: %v", names)
	}
}

func TestVariableClassificationMapper(t *testing.T) {
	c, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	classes := classByName(c.Kernel)
	// word, one, read, linePtr, offset are written first -> private.
	for _, name := range []string{"word", "one", "read", "linePtr", "offset"} {
		if classes[name] != ClassPrivate {
			t.Errorf("%s class = %v, want private", name, classes[name])
		}
	}
	// line has its address taken by getRecord (written) -> private.
	if classes["line"] != ClassPrivate {
		t.Errorf("line class = %v, want private", classes["line"])
	}
}

func TestVariableClassificationCombiner(t *testing.T) {
	c, err := Compile(wordcountCombineSrc)
	if err != nil {
		t.Fatal(err)
	}
	classes := classByName(c.Kernel)
	if classes["prevWord"] != ClassFirstPrivate {
		t.Errorf("prevWord class = %v, want firstprivate", classes["prevWord"])
	}
	if classes["count"] != ClassFirstPrivate {
		t.Errorf("count class = %v, want firstprivate", classes["count"])
	}
	// word receives input KVs (first access is a write via &/getKV).
	if classes["word"] != ClassPrivate {
		t.Errorf("word class = %v, want private", classes["word"])
	}
}

func TestAutoFirstPrivateDetection(t *testing.T) {
	src := `
int main() {
	int seed = 42;
	int x, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(x) value(x)
	while ((read = getline(&line, &n, stdin)) != -1) {
		x = seed + read;
		printf("%d\t%d\n", x, x);
	}
	return 0;
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	classes := classByName(c.Kernel)
	// seed is read before any write -> auto firstprivate.
	if classes["seed"] != ClassFirstPrivate {
		t.Errorf("seed class = %v, want auto firstprivate", classes["seed"])
	}
}

func TestSharedROAndTextureClassification(t *testing.T) {
	src := `
int main() {
	double centroids[64];
	int k = 8;
	int x, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	for (int i = 0; i < 64; i++) centroids[i] = i;
	#pragma mapreduce mapper key(x) value(x) sharedRO(k) texture(centroids)
	while ((read = getline(&line, &n, stdin)) != -1) {
		x = (int) centroids[read % 64] + k;
		printf("%d\t%d\n", x, x);
	}
	return 0;
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	classes := classByName(c.Kernel)
	if classes["k"] != ClassROScalar {
		t.Errorf("k class = %v, want ROScalar", classes["k"])
	}
	if classes["centroids"] != ClassTexture {
		t.Errorf("centroids class = %v, want Texture", classes["centroids"])
	}
}

func TestTextureOnScalarRejected(t *testing.T) {
	src := `
int main() {
	int k = 8;
	int x, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(x) value(x) texture(k)
	while ((read = getline(&line, &n, stdin)) != -1) {
		x = k;
		printf("%d\t%d\n", x, x);
	}
	return 0;
}`
	if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "texture") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no pragma", `int main() { return 0; }`, "no mapreduce pragma"},
		{"unknown key var", `
int main() {
	int x, read; char *line; size_t n = 10;
	line = (char*) malloc(10);
	#pragma mapreduce mapper key(nothere) value(x)
	while ((read = getline(&line, &n, stdin)) != -1) { x = 1; printf("%d\t%d\n", x, x); }
	return 0;
}`, "unknown variable"},
		{"mapper on non-loop", `
int main() {
	int x = 0;
	#pragma mapreduce mapper key(x) value(x)
	{ x = 1; }
	return 0;
}`, "while loop"},
		{"mapper without records", `
int main() {
	int x = 0;
	#pragma mapreduce mapper key(x) value(x)
	while (x < 3) { x++; printf("%d\t%d\n", x, x); }
	return 0;
}`, "never reads records"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestTwoPragmasRejected(t *testing.T) {
	src := `
int main() {
	int x, read; char *line; size_t n = 10;
	line = (char*) malloc(10);
	#pragma mapreduce mapper key(x) value(x)
	while ((read = getline(&line, &n, stdin)) != -1) { x = 1; printf("%d\t%d\n", x, x); }
	#pragma mapreduce mapper key(x) value(x)
	while ((read = getline(&line, &n, stdin)) != -1) { x = 2; printf("%d\t%d\n", x, x); }
	return 0;
}`
	if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "2 mapreduce pragmas") {
		t.Fatalf("err = %v", err)
	}
}

func TestSchemaNumericKinds(t *testing.T) {
	src := `
int main() {
	int bin; double price;
	int read; char *line; size_t n = 100;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(bin) value(price)
	while ((read = getline(&line, &n, stdin)) != -1) {
		bin = read % 10;
		price = read * 1.5;
		printf("%d\t%f\n", bin, price);
	}
	return 0;
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Schema.KeyKind != kv.Int {
		t.Errorf("key kind = %v", c.Schema.KeyKind)
	}
	if c.Schema.ValKind != kv.Float {
		t.Errorf("val kind = %v", c.Schema.ValKind)
	}
	if c.Kernel.VectorKey || c.Kernel.VectorVal {
		t.Error("numeric key/value must not be vector-eligible")
	}
}

func TestEmitCUDAMapperShape(t *testing.T) {
	c, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	cuda := c.CUDA
	for _, want := range []string{
		"__global__ void gpu_mapper(",
		"char *ip", "int *recordLocator", "storesPerThread", "devKvCount",
		"mapSetup(", "mapFinish(",
		"getRecord(", "emitKV(",
		"__shared__ unsigned int recordIndex;",
		"char gpu_word[30];",
	} {
		if !strings.Contains(cuda, want) {
			t.Errorf("CUDA output missing %q:\n%s", want, cuda)
		}
	}
	if strings.Contains(cuda, "getline(") || strings.Contains(cuda, "printf(") {
		t.Errorf("CUDA output still contains CPU stdio calls:\n%s", cuda)
	}
}

func TestEmitCUDACombinerShape(t *testing.T) {
	c, err := Compile(wordcountCombineSrc)
	if err != nil {
		t.Fatal(err)
	}
	cuda := c.CUDA
	for _, want := range []string{
		"__global__ void gpu_combiner(",
		"combineSetup(",
		"__shared__ char gpu_prevWord[WARPS_IN_TB][30];",
		"getKV(", "storeKV(", "strcmpGPU(", "strcpyGPU(",
		"gpu_prevWord[warpID]",
	} {
		if !strings.Contains(cuda, want) {
			t.Errorf("CUDA output missing %q:\n%s", want, cuda)
		}
	}
}

func TestCompileIsRepeatable(t *testing.T) {
	a, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(wordcountMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.CUDA != b.CUDA {
		t.Error("CUDA emission is not deterministic")
	}
}

// aliasedPointersSrc reads three outside pointers first inside the
// region, in the order c, a, b: each is auto-privatized as firstprivate
// with an aliasing warning.
const aliasedPointersSrc = `
int main() {
	char word[4], *line, *a, *b, *c;
	size_t nbytes = 100;
	int read, one;
	line = (char*) malloc(nbytes * sizeof(char));
	a = line; b = line; c = line;
	#pragma mapreduce mapper key(word) value(one) keylength(4)
	while ((read = getline(&line, &nbytes, stdin)) != -1) {
		one = 1;
		word[0] = c[0]; word[1] = a[0]; word[2] = b[0]; word[3] = '\0';
		printf("%s\t%d\n", word, one);
	}
	return 0;
}`

// TestPrivatizationWarningsInFirstAccessOrder compiles the same source
// repeatedly: the warnings, and the CUDA text that carries them, must come
// out in first-access order every time.
func TestPrivatizationWarningsInFirstAccessOrder(t *testing.T) {
	var want []string
	for _, name := range []string{"c", "a", "b"} {
		want = append(want, fmt.Sprintf(
			"auto-privatization of pointer %q may be inaccurate due to aliasing; consider a firstprivate clause", name))
	}
	var cuda string
	for i := 0; i < 50; i++ {
		c, err := Compile(aliasedPointersSrc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Kernel.Warnings, want) {
			t.Fatalf("compile %d: warnings\n%q\nwant\n%q", i, c.Kernel.Warnings, want)
		}
		if i > 0 && c.CUDA != cuda {
			t.Fatalf("compile %d: CUDA text differs from the first compile", i)
		}
		cuda = c.CUDA
	}
}

// callNames counts call expressions by name inside a statement tree.
func callNames(s minic.Stmt) map[string]int {
	out := map[string]int{}
	minic.WalkExprs(s, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok {
			out[c.Name]++
		}
		return true
	})
	return out
}

func classByName(spec *KernelSpec) map[string]VarClass {
	out := map[string]VarClass{}
	for sym, cls := range spec.Plan {
		out[sym.Name] = cls
	}
	return out
}
