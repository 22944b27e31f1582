package gpurt

import (
	"bytes"
	"testing"
)

// skewedInput builds records with heavy size skew across many records per
// thread, the regime where stealing granularity matters.
func skewedInput(lines int) []byte {
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		if i%8 == 0 {
			for j := 0; j < 30; j++ {
				b.WriteString("longword ")
			}
		} else {
			b.WriteString("x y")
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestStealingGranularityAblation verifies the paper's §4.1 design
// argument: per-threadblock stealing beats static partitioning on skewed
// records, and device-wide (global-atomic) stealing loses its balance
// advantage to atomic contention.
func TestStealingGranularityAblation(t *testing.T) {
	dev := devK40(t)
	comp := mustCompile(t, wcMapSrc)
	input := skewedInput(512)

	runMode := func(steal, global bool) float64 {
		opts := AllOptimizations()
		opts.RecordStealing = steal
		opts.GlobalStealing = global
		res, err := RunTask(dev, comp, nil, input, TaskConfig{NumReducers: 2, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times.Map
	}
	static := runMode(false, false)
	block := runMode(true, false)
	global := runMode(true, true)

	if block >= static {
		t.Errorf("per-block stealing (%.3g) not faster than static (%.3g)", block, static)
	}
	if block >= global {
		t.Errorf("per-block stealing (%.3g) not faster than global stealing (%.3g): the paper's design premise", block, global)
	}
}

func TestGlobalStealingStillCorrect(t *testing.T) {
	dev := devK40(t)
	comp := mustCompile(t, wcMapSrc)
	input := testInput(45)

	counts := func(global bool) map[string]int64 {
		opts := AllOptimizations()
		opts.GlobalStealing = global
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
	a, b := counts(false), counts(true)
	if len(a) != len(b) {
		t.Fatalf("distinct keys differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count[%q]: block %d global %d", k, v, b[k])
		}
	}
}

func TestSerializeOutputUsesRealContainer(t *testing.T) {
	dev := devK40(t)
	mapC := mustCompile(t, wcMapSrc)
	combC := mustCompile(t, wcCombineSrc)
	res, err := RunTask(dev, mapC, combC, testInput(30), TaskConfig{NumReducers: 2, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, p := range res.Partitions {
		pairs += len(p)
	}
	// Container bytes: 6-byte header + 12-byte trailer per partition plus
	// per-record framing; must exceed the raw payload and track the count.
	minBytes := int64(pairs * (8 + 4)) // length prefixes + crc at least
	if res.OutputBytes < minBytes {
		t.Fatalf("output bytes %d below framing floor %d", res.OutputBytes, minBytes)
	}
}
