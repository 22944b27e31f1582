package gpurt

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/streaming"
)

// TestCombinerRelaxedEquivalenceExample reproduces the paper's §4.2
// worked example: a partition receives <a,1>, <a,1>, <b,1>. A CPU
// combiner outputs <a,2>, <b,1>; two GPU warps splitting the partition
// may output <a,1>, <a,1>, <b,1> or <a,2>, <b,1> depending on where the
// chunk boundary falls — functional equivalence is traded for
// parallelism, and the reducer restores it.
func TestCombinerRelaxedEquivalenceExample(t *testing.T) {
	dev := devK40(t)
	combC := mustCompile(t, wcCombineSrc)

	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 30}
	store, err := NewKVStore(schema, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []kv.Pair{
		{Key: kv.StringValue("a"), Val: kv.IntValue(1)},
		{Key: kv.StringValue("a"), Val: kv.IntValue(1)},
		{Key: kv.StringValue("b"), Val: kv.IntValue(1)},
	} {
		if _, err := store.Emit(0, p.Key, p.Val); err != nil {
			t.Fatal(err)
		}
	}
	partitions := store.Aggregate()
	store.SortPartition(partitions[0])

	cap, err := captureHost(combC, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecCombineKernels(dev, combC, cap, store, partitions, AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Partitions[0]

	// The combined output must (1) be no larger than the input, (2) sum to
	// the same totals per key, and (3) possibly contain split runs — the
	// relaxed part.
	if len(out) > 3 {
		t.Fatalf("combiner grew the data: %v", out)
	}
	sums := map[string]int64{}
	for _, p := range out {
		sums[string(p.Key.B)] += p.Val.I
	}
	if sums["a"] != 2 || sums["b"] != 1 {
		t.Fatalf("totals wrong after combine: %v", sums)
	}

	// The reducer (CPU merge + reduce filter) must restore the exact
	// canonical result regardless of how the warps split the run.
	reduceF := mustFilter(t, "wc-reduce", wcReduceForTest)
	final, _, err := streaming.RunReduce(reduceF, schema, [][]kv.Pair{out}, streaming.XeonE52680(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 2 {
		t.Fatalf("reduce output = %v", final)
	}
	got := map[string]int64{}
	for _, p := range final {
		got[string(p.Key.B)] = p.Val.I
	}
	if got["a"] != 2 || got["b"] != 1 {
		t.Fatalf("reduce failed to restore equivalence: %v", got)
	}
}

const wcReduceForTest = `
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

// TestWarpChunkingSplitsKeyRuns forces a key run across a warp boundary
// and verifies the partial-combine shape directly: more output pairs than
// distinct keys, with per-key sums intact.
func TestWarpChunkingSplitsKeyRuns(t *testing.T) {
	dev := devK40(t)
	combC := mustCompile(t, wcCombineSrc)
	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 30}

	// 200 pairs of the same key: with many warps, the run must split.
	store, err := NewKVStore(schema, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := store.Emit(i%4, kv.StringValue("same"), kv.IntValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	partitions := store.Aggregate()
	store.SortPartition(partitions[0])
	cap, err := captureHost(combC, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecCombineKernels(dev, combC, cap, store, partitions, AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Partitions[0]
	if len(out) < 2 {
		t.Fatalf("expected a partial combine across warps, got %d pairs", len(out))
	}
	var sum int64
	for _, p := range out {
		if string(p.Key.B) != "same" {
			t.Fatalf("alien key %q", p.Key.B)
		}
		sum += p.Val.I
	}
	if sum != 200 {
		t.Fatalf("sum = %d, want 200", sum)
	}
	if res.Warps < 2 {
		t.Fatalf("only %d warps ran; chunking not exercised", res.Warps)
	}
}

// TestIndirectionSortNeverMovesData is the §5.3 invariant: sorting
// permutes only the index array; the serialized KV bytes stay put.
func TestIndirectionSortNeverMovesData(t *testing.T) {
	schema := kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 16}
	store, err := NewKVStore(schema, 2, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"pear", "apple", "zebra", "fig", "mango", "kiwi"}
	for i, w := range words {
		if _, err := store.Emit(i%2, kv.StringValue(w), kv.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotStore(store)
	parts := store.Aggregate()
	store.SortPartition(parts[0])
	after := snapshotStore(store)
	if !bytes.Equal(before, after) {
		t.Fatal("sort moved KV data; the indirection design forbids that")
	}
}

func snapshotStore(s *KVStore) []byte {
	var b bytes.Buffer
	for slot := 0; slot < s.TotalSlots(); slot++ {
		b.Write(s.SlotKeyBytes(slot))
	}
	return b.Bytes()
}

// TestEmissionOrderStableAcrossOptimizationSets: every optimization set
// must produce the same multiset of pairs (cost model changes must never
// leak into semantics).
func TestEmissionOrderStableAcrossOptimizationSets(t *testing.T) {
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	input := testInput(35)
	variants := []Options{
		Baseline(),
		AllOptimizations(),
		{UseTexture: true},
		{VectorMap: true, VectorCombine: true},
		{RecordStealing: true, Aggregation: true},
	}
	var ref map[string]int64
	for i, opts := range variants {
		res, err := RunTask(dev, mapC, combC, input, TaskConfig{NumReducers: 3, Opts: opts})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got := map[string]int64{}
		for _, part := range res.Partitions {
			for _, p := range part {
				got[string(p.Key.B)] += p.Val.I
			}
		}
		if i == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("variant %d: key count %d != %d", i, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Errorf("variant %d: count[%q] = %d, want %d", i, k, got[k], v)
			}
		}
	}
	_ = fmt.Sprint(ref)
}

func mustFilter(t *testing.T, name, src string) *streaming.Filter {
	t.Helper()
	f, err := streaming.NewFilter(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
