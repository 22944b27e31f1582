package gpurt

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/kv"
	"repro/internal/minic"
)

const wcMapSrc = `
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
	#pragma mapreduce mapper key(word) value(one) keylength(30) kvpairs(32) blocks(4) threads(32)
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

const wcCombineSrc = `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
	#pragma mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) keylength(30) firstprivate(prevWord, count) blocks(2) threads(64)
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

func testInput(lines int) []byte {
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "a", "and"}
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		n := 3 + i%5
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[(i*7+j*3)%len(words)])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// cpuWordCounts computes the reference word counts by running the SAME
// mapper source on the CPU streaming path.
func cpuWordCounts(t *testing.T, input []byte) map[string]int64 {
	t.Helper()
	prog, err := minic.ParseAndCheck(wcMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := interp.New(prog, interp.Options{Stdin: bytes.NewReader(input), Stdout: &out})
	if _, err := walker.Run(m); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		p, err := kv.ParsePair(kv.Bytes, kv.Int, line)
		if err != nil {
			t.Fatal(err)
		}
		counts[string(p.Key.B)] += p.Val.I
	}
	return counts
}

func mustCompile(t *testing.T, src string) *compiler.Compiled {
	t.Helper()
	c, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func devK40(t *testing.T) *gpu.Device {
	t.Helper()
	d, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKVStoreEmitAndCounts(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 16}
	s, err := NewKVStore(schema, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Emit(1, kv.StringValue(fmt.Sprintf("k%d", i)), kv.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count(1) != 5 || s.TotalCount() != 5 {
		t.Fatalf("counts = %d/%d", s.Count(1), s.TotalCount())
	}
	if s.Whitespace() != 4*8-5 {
		t.Fatalf("whitespace = %d", s.Whitespace())
	}
	if s.Remaining(1) != 3 {
		t.Fatalf("remaining = %d", s.Remaining(1))
	}
	p := s.SlotPair(1*8 + 2)
	if string(p.Key.B) != "k2" || p.Val.I != 2 {
		t.Fatalf("slot pair = %v", p)
	}
}

func TestKVStoreOverflow(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Int, ValKind: kv.Int}
	s, _ := NewKVStore(schema, 1, 2, 1)
	s.Emit(0, kv.IntValue(1), kv.IntValue(1))
	s.Emit(0, kv.IntValue(2), kv.IntValue(2))
	if _, err := s.Emit(0, kv.IntValue(3), kv.IntValue(3)); err != ErrStoreOverflow {
		t.Fatalf("err = %v, want ErrStoreOverflow", err)
	}
}

func TestKVStoreAggregatePartitions(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 8}
	s, _ := NewKVStore(schema, 3, 4, 4)
	words := []string{"aa", "bb", "cc", "dd", "ee", "ff"}
	for i, w := range words {
		if _, err := s.Emit(i%3, kv.StringValue(w), kv.IntValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	parts := s.Aggregate()
	if len(parts) != 4 {
		t.Fatalf("partitions = %d", len(parts))
	}
	total := 0
	for p, slots := range parts {
		total += len(slots)
		for _, slot := range slots {
			pair := s.SlotPair(int(slot))
			if kv.Partition(pair.Key, 4) != p {
				t.Fatalf("slot %d in wrong partition", slot)
			}
		}
	}
	if total != len(words) {
		t.Fatalf("aggregated %d pairs, want %d", total, len(words))
	}
}

func TestSortPartitionOrdersByKey(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 8}
	s, _ := NewKVStore(schema, 2, 16, 1)
	words := []string{"pear", "apple", "fig", "date", "apple", "cherry"}
	for i, w := range words {
		if _, err := s.Emit(i%2, kv.StringValue(w), kv.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	parts := s.Aggregate()
	s.SortPartition(parts[0])
	var got []string
	for _, slot := range parts[0] {
		got = append(got, string(s.SlotPair(int(slot)).Key.B))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("not sorted: %v", got)
	}
	if len(got) != len(words) {
		t.Fatalf("lost pairs: %v", got)
	}
}

func TestSortPartitionIntKeys(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Int, ValKind: kv.Int}
	s, _ := NewKVStore(schema, 1, 32, 1)
	vals := []int64{5, -3, 12, 0, -100, 7, 5}
	for _, v := range vals {
		if _, err := s.Emit(0, kv.IntValue(v), kv.IntValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	parts := s.Aggregate()
	s.SortPartition(parts[0])
	var got []int64
	for _, slot := range parts[0] {
		got = append(got, s.SlotPair(int(slot)).Key.I)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("int keys not numerically sorted through byte encoding: %v", got)
	}
}

func TestLocateRecords(t *testing.T) {
	input := []byte("abc\ndefgh\n\nxy")
	recs := LocateRecords(input)
	want := []Record{{0, 4}, {4, 6}, {10, 1}, {11, 2}}
	if len(recs) != len(want) {
		t.Fatalf("records = %v", recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %v, want %v", i, recs[i], want[i])
		}
	}
	if LocateRecords(nil) != nil {
		t.Fatal("empty input should yield no records")
	}
}

func TestMapKernelMatchesCPUCounts(t *testing.T) {
	input := testInput(50)
	want := cpuWordCounts(t, input)

	dev := devK40(t)
	comp, err := compiler.Compile(wcMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTask(dev, comp, nil, input, TaskConfig{NumReducers: 4, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, part := range res.Partitions {
		for _, p := range part {
			got[string(p.Key.B)] += p.Val.I
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
}

func TestMapPlusCombineMatchesCPUCounts(t *testing.T) {
	input := testInput(60)
	want := cpuWordCounts(t, input)

	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	res, err := RunTask(dev, mapC, combC, input, TaskConfig{NumReducers: 4, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	combined := 0
	for _, part := range res.Partitions {
		for _, p := range part {
			got[string(p.Key.B)] += p.Val.I
			combined++
		}
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	// The combiner must actually combine: fewer output pairs than inputs.
	if combined >= res.KVPairs {
		t.Errorf("combiner did not shrink data: %d out of %d in", combined, res.KVPairs)
	}
}

func TestCombinerOutputSortedWithinPartition(t *testing.T) {
	input := testInput(40)
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	res, err := RunTask(dev, mapC, combC, input, TaskConfig{NumReducers: 2, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	// Each warp outputs sorted keys; across warps order is per-chunk, so
	// within a partition keys must be non-decreasing per contiguous run.
	// At minimum every partition's pairs must belong to that partition.
	for pi, part := range res.Partitions {
		for _, pr := range part {
			if kv.Partition(pr.Key, 2) != pi {
				t.Fatalf("pair %v landed in partition %d", pr, pi)
			}
		}
	}
}

func TestRecordStealingBalancesSkew(t *testing.T) {
	// Heavily skewed records, with several records per thread so dynamic
	// distribution has room to act: every 8th line is very long, and with
	// static round-robin the long lines pile onto the same lanes.
	var b bytes.Buffer
	for i := 0; i < 512; i++ {
		if i%8 == 0 {
			for j := 0; j < 30; j++ {
				b.WriteString("longword ")
			}
		} else {
			b.WriteString("x")
		}
		b.WriteByte('\n')
	}
	input := b.Bytes()
	dev := devK40(t)
	comp := mustCompile(t, wcMapSrc)

	runWith := func(steal bool) float64 {
		opts := AllOptimizations()
		opts.RecordStealing = steal
		res, err := RunTask(dev, comp, nil, input, TaskConfig{NumReducers: 2, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times.Map
	}
	static := runWith(false)
	stealing := runWith(true)
	if stealing >= static {
		t.Fatalf("record stealing (%.3g) not faster than static partitioning (%.3g) on skewed records", stealing, static)
	}
}

func TestStealingProducesSameCountsAsStatic(t *testing.T) {
	input := testInput(45)
	dev := devK40(t)
	comp := mustCompile(t, wcMapSrc)
	counts := func(steal bool) map[string]int64 {
		opts := AllOptimizations()
		opts.RecordStealing = steal
		res, err := RunTask(dev, comp, nil, input, TaskConfig{NumReducers: 3, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, part := range res.Partitions {
			for _, p := range part {
				out[string(p.Key.B)] += p.Val.I
			}
		}
		return out
	}
	a, b := counts(true), counts(false)
	if len(a) != len(b) {
		t.Fatalf("distinct keys differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count[%q]: stealing %d static %d", k, v, b[k])
		}
	}
}

func TestVectorizationSpeedsUpKernels(t *testing.T) {
	input := testInput(50)
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	run := func(opts Options) StageTimes {
		res, err := RunTask(dev, mapC, combC, input, TaskConfig{NumReducers: 2, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times
	}
	base := Baseline()
	base.Aggregation = true
	withVecMap := base
	withVecMap.VectorMap = true
	withVecComb := base
	withVecComb.VectorCombine = true

	t0 := run(base)
	tm := run(withVecMap)
	tc := run(withVecComb)
	if tm.Map >= t0.Map {
		t.Errorf("vectorized map (%.3g) not faster than baseline (%.3g)", tm.Map, t0.Map)
	}
	if tc.Combine >= t0.Combine {
		t.Errorf("vectorized combine (%.3g) not faster than baseline (%.3g)", tc.Combine, t0.Combine)
	}
}

func TestAggregationSpeedsUpSort(t *testing.T) {
	input := testInput(50)
	dev := devK40(t)
	comp := mustCompile(t, wcMapSrc)
	run := func(agg bool) float64 {
		opts := AllOptimizations()
		opts.Aggregation = agg
		res, err := RunTask(dev, comp, nil, input, TaskConfig{NumReducers: 2, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times.Sort
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("aggregation did not speed up sort: %.3g vs %.3g", with, without)
	}
}

func TestMapOnlyTask(t *testing.T) {
	src := `
int main() {
	int id; double price;
	int read; char *line;
	size_t n = 1000;
	line = (char*) malloc(1000);
	#pragma mapreduce mapper key(id) value(price) kvpairs(1) blocks(2) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		id = atoi(line);
		price = id * 1.5;
		printf("%d\t%f\n", id, price);
	}
	return 0;
}`
	var b bytes.Buffer
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	dev := devK40(t)
	comp := mustCompile(t, src)
	res, err := RunTask(dev, comp, nil, b.Bytes(), TaskConfig{NumReducers: 0, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapOutput) != 20 {
		t.Fatalf("map-only output = %d pairs, want 20", len(res.MapOutput))
	}
	if res.Partitions != nil {
		t.Fatal("map-only task must not produce reducer partitions")
	}
	if res.Times.Sort != 0 || res.Times.Combine != 0 {
		t.Fatal("map-only task must skip sort and combine")
	}
	if res.Times.OutputWrite <= 0 {
		t.Fatal("map-only task must pay the HDFS write")
	}
	seen := map[int64]float64{}
	for _, p := range res.MapOutput {
		seen[p.Key.I] = p.Val.F
	}
	for i := int64(0); i < 20; i++ {
		if seen[i] != float64(i)*1.5 {
			t.Errorf("price[%d] = %v", i, seen[i])
		}
	}
}

func TestBreakdownStagesAllPositive(t *testing.T) {
	input := testInput(40)
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	res, err := RunTask(dev, mapC, combC, input, TaskConfig{
		NumReducers: 2, Opts: AllOptimizations(), InputReadTime: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Times
	for _, st := range tm.Stages() {
		if st.Time < 0 {
			t.Errorf("stage %s negative: %v", st.Name, st.Time)
		}
	}
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"input read", tm.InputRead}, {"input copy", tm.InputCopy},
		{"record count", tm.RecordCount}, {"map", tm.Map},
		{"sort", tm.Sort}, {"combine", tm.Combine}, {"output write", tm.OutputWrite},
	} {
		if st.v <= 0 {
			t.Errorf("stage %s should be positive, got %v", st.name, st.v)
		}
	}
	if total := tm.Total(); total <= tm.Map {
		t.Errorf("total %v must exceed map alone %v", total, tm.Map)
	}
}

func TestTaskDeterministic(t *testing.T) {
	input := testInput(30)
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	run := func() (float64, int) {
		res, err := RunTask(dev, mapC, combC, input, TaskConfig{NumReducers: 4, Opts: AllOptimizations()})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range res.Partitions {
			n += len(p)
		}
		return res.Total(), n
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Fatalf("nondeterministic task: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}

func TestStoreSlotsPerThread(t *testing.T) {
	// Exact sizing with a kvpairs clause leaves stealing headroom.
	per := storeSlotsPerThread(1000, 4, 128, true)
	if per < 2*(1000*4/128) {
		t.Fatalf("exact sizing too small: %d", per)
	}
	// Unknown emission over-allocates.
	loose := storeSlotsPerThread(1000, 32, 128, false)
	if loose <= per {
		t.Fatalf("over-allocation (%d) should exceed exact sizing (%d)", loose, per)
	}
	if storeSlotsPerThread(0, 4, 128, true) < 4 {
		t.Fatal("degenerate record count must still hold one record's pairs")
	}
}

func TestRunTaskValidation(t *testing.T) {
	dev := devK40(t)
	if _, err := RunTask(dev, nil, nil, nil, TaskConfig{}); err == nil {
		t.Fatal("nil mapper accepted")
	}
	combC := mustCompile(t, wcCombineSrc)
	if _, err := RunTask(dev, combC, nil, nil, TaskConfig{}); err == nil {
		t.Fatal("combiner-as-mapper accepted")
	}
	mapC := mustCompile(t, wcMapSrc)
	if _, err := RunTask(dev, mapC, mapC, testInput(5), TaskConfig{NumReducers: 2}); err == nil {
		t.Fatal("mapper-as-combiner accepted")
	}
}
