package streaming

import (
	"strings"
	"testing"

	"repro/internal/kv"
)

const wcMap = `
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

const wcCombine = `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
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
	return 0;
}`

var wcSchema = kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 30}

func TestFilterRun(t *testing.T) {
	f := mustFilter(t, "wc-map", wcMap)
	out, sink, err := f.Run([]byte("a b a\nc a\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out != "a\t1\nb\t1\na\t1\nc\t1\na\t1\n" {
		t.Fatalf("out = %q", out)
	}
	if sink.Ops == 0 {
		t.Fatal("no cost recorded")
	}
}

func TestNewFilterRejectsBadSource(t *testing.T) {
	if _, err := NewFilter("bad", "int main( {"); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestFilterNonZeroExitIsError(t *testing.T) {
	f := mustFilter(t, "fail", `int main() { return 2; }`)
	if _, _, err := f.Run(nil); err == nil || !strings.Contains(err.Error(), "status 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseAndRenderKVLines(t *testing.T) {
	pairs, err := ParseKVLines("x\t1\ny\t2\n", wcSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || string(pairs[1].Key.B) != "y" || pairs[1].Val.I != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	back := string(RenderKVLines(pairs))
	if back != "x\t1\ny\t2\n" {
		t.Fatalf("render = %q", back)
	}
}

func TestRunMapTaskPartitionsAndCombines(t *testing.T) {
	mapF := mustFilter(t, "wc-map", wcMap)
	combF := mustFilter(t, "wc-combine", wcCombine)
	input := []byte("the cat sat\nthe dog sat\nthe end\n")
	res, err := RunMapTask(mapF, combF, input, MapTaskConfig{
		Schema: wcSchema, NumReducers: 3, InputReadTime: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for pi, part := range res.Partitions {
		for _, p := range part {
			if kv.Partition(p.Key, 3) != pi {
				t.Errorf("pair %v in wrong partition %d", p, pi)
			}
			counts[string(p.Key.B)] += p.Val.I
		}
	}
	want := map[string]int64{"the": 3, "cat": 1, "sat": 2, "dog": 1, "end": 1}
	for w, c := range want {
		if counts[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, counts[w], c)
		}
	}
	// Combiner shrank output: 8 map pairs -> 5 distinct words.
	got := 0
	for _, part := range res.Partitions {
		got += len(part)
	}
	if got != 5 {
		t.Errorf("combined pairs = %d, want 5", got)
	}
	if res.MapPairs != 8 {
		t.Errorf("map pairs = %d, want 8", res.MapPairs)
	}
	tm := res.Times
	if tm.Map <= 0 || tm.Sort <= 0 || tm.Combine <= 0 || tm.OutputWrite <= 0 {
		t.Errorf("stage times not all positive: %+v", tm)
	}
	if tm.Total() <= tm.Map {
		t.Error("total must exceed map alone")
	}
}

func TestRunMapTaskWithoutCombiner(t *testing.T) {
	mapF := mustFilter(t, "wc-map", wcMap)
	res, err := RunMapTask(mapF, nil, []byte("a a b\n"), MapTaskConfig{
		Schema: wcSchema, NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, part := range res.Partitions {
		total += len(part)
		for i := 1; i < len(part); i++ {
			if kv.Compare(part[i-1].Key, part[i].Key) > 0 {
				t.Error("partition not sorted")
			}
		}
	}
	if total != 3 {
		t.Fatalf("pairs = %d, want 3 (no combining)", total)
	}
	if res.Times.Combine != 0 {
		t.Error("combine time charged without combiner")
	}
}

func TestRunMapTaskMapOnly(t *testing.T) {
	src := `
int main() {
	char *line;
	size_t n = 100;
	int read, id;
	double p;
	line = (char*) malloc(100);
	while ((read = getline(&line, &n, stdin)) != -1) {
		id = atoi(line);
		p = id * 2.0;
		printf("%d\t%f\n", id, p);
	}
	return 0;
}`
	mapF := mustFilter(t, "bs-map", src)
	schema := kv.Schema{KeyKind: kv.Int, ValKind: kv.Float}
	res, err := RunMapTask(mapF, nil, []byte("1\n2\n3\n"), MapTaskConfig{
		Schema: schema, NumReducers: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapOutput) != 3 || res.Partitions != nil {
		t.Fatalf("map-only result wrong: %d outputs, partitions=%v", len(res.MapOutput), res.Partitions)
	}
	if res.MapOutput[2].Key.I != 3 || res.MapOutput[2].Val.F != 6.0 {
		t.Fatalf("output = %v", res.MapOutput[2])
	}
	if res.Times.Sort != 0 {
		t.Error("map-only job must not sort")
	}
}

func TestRunReduceMergesAndReduces(t *testing.T) {
	reduceSrc := wcCombine // wordcount reduce == combine
	reduceF := mustFilter(t, "wc-reduce", reduceSrc)
	inputs := [][]kv.Pair{
		{{Key: kv.StringValue("a"), Val: kv.IntValue(2)}, {Key: kv.StringValue("c"), Val: kv.IntValue(1)}},
		{{Key: kv.StringValue("a"), Val: kv.IntValue(3)}, {Key: kv.StringValue("b"), Val: kv.IntValue(1)}},
	}
	out, cost, err := RunReduce(reduceF, wcSchema, inputs, XeonE52680(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("reduce cost not positive")
	}
	got := map[string]int64{}
	for _, p := range out {
		got[string(p.Key.B)] = p.Val.I
	}
	if got["a"] != 5 || got["b"] != 1 || got["c"] != 1 {
		t.Fatalf("reduce output = %v", got)
	}
}

func TestMergeSortedHandlesUnsortedRuns(t *testing.T) {
	// GPU combiner output is sorted per warp chunk, not globally.
	inputs := [][]kv.Pair{
		{{Key: kv.StringValue("m"), Val: kv.IntValue(1)}, {Key: kv.StringValue("a"), Val: kv.IntValue(1)}},
		{{Key: kv.StringValue("z"), Val: kv.IntValue(1)}, {Key: kv.StringValue("b"), Val: kv.IntValue(1)}},
	}
	out := MergeSorted(inputs)
	for i := 1; i < len(out); i++ {
		if kv.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("merge output not sorted: %v", out)
		}
	}
	if len(out) != 4 {
		t.Fatalf("merge lost pairs: %d", len(out))
	}
}

func TestCPUModelTimes(t *testing.T) {
	cpu := XeonE52680()
	f := mustFilter(t, "wc-map", wcMap)
	_, small, err := f.Run([]byte("a\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, big, err := f.Run([]byte(strings.Repeat("a b c d e\n", 100)))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Time(big) <= cpu.Time(small) {
		t.Fatal("CPU time not increasing with work")
	}
	if cpu.SortTime(100000, 30) <= cpu.SortTime(100, 30) {
		t.Fatal("sort time not increasing")
	}
	if cpu.SortTime(1, 30) != 0 || cpu.SortTime(0, 30) != 0 {
		t.Fatal("degenerate sorts should be free")
	}
}

func mustFilter(t *testing.T, name, src string) *Filter {
	t.Helper()
	f, err := NewFilter(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
