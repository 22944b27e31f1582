// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§7). Each benchmark regenerates its artifact and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation at a reduced (but shape-preserving)
// scale. The bodies live in internal/perf/benchsuite so cmd/hdbench's
// baseline/regression pipeline measures the exact same code; these
// wrappers keep the `go test -bench` names stable.
package repro_test

import (
	"os"
	"testing"

	"repro/internal/perf"
	"repro/internal/perf/benchsuite"
)

func BenchmarkTable2(b *testing.B)              { benchsuite.Table2(b) }
func BenchmarkTable3(b *testing.B)              { benchsuite.Table3(b) }
func BenchmarkFig3TailScheduling(b *testing.B)  { benchsuite.Fig3TailScheduling(b) }
func BenchmarkFig4aCluster1(b *testing.B)       { benchsuite.Fig4aCluster1(b) }
func BenchmarkFig4bCluster2(b *testing.B)       { benchsuite.Fig4bCluster2(b) }
func BenchmarkFig5TaskSpeedups(b *testing.B)    { benchsuite.Fig5TaskSpeedups(b) }
func BenchmarkFig6Breakdown(b *testing.B)       { benchsuite.Fig6Breakdown(b) }
func BenchmarkFig7aTexture(b *testing.B)        { benchsuite.Fig7aTexture(b) }
func BenchmarkFig7bVectorCombine(b *testing.B)  { benchsuite.Fig7bVectorCombine(b) }
func BenchmarkFig7cVectorMap(b *testing.B)      { benchsuite.Fig7cVectorMap(b) }
func BenchmarkFig7dRecordStealing(b *testing.B) { benchsuite.Fig7dRecordStealing(b) }
func BenchmarkFig7eAggregation(b *testing.B)    { benchsuite.Fig7eAggregation(b) }
func BenchmarkSchedulerAblation(b *testing.B)   { benchsuite.SchedulerAblation(b) }
func BenchmarkStealingGranularity(b *testing.B) { benchsuite.StealingGranularity(b) }
func BenchmarkSpeculativeExecution(b *testing.B) {
	benchsuite.SpeculativeExecution(b)
}
func BenchmarkMapTaskGPU(b *testing.B) { benchsuite.MapTaskGPU(b) }
func BenchmarkLRMapVM(b *testing.B)    { benchsuite.LRMapVM(b) }
func BenchmarkKMMapVM(b *testing.B)    { benchsuite.KMMapVM(b) }
func BenchmarkBSMapVM(b *testing.B)    { benchsuite.BSMapVM(b) }
func BenchmarkWCMapVM(b *testing.B)    { benchsuite.WCMapVM(b) }
func BenchmarkBSMapGPU(b *testing.B)   { benchsuite.BSMapGPU(b) }
func BenchmarkCompileTable2(b *testing.B) {
	benchsuite.CompileTable2(b)
}
func BenchmarkEngineTable2(b *testing.B) { benchsuite.EngineTable2(b) }

// TestBenchSuiteNamesMatch pins the wrapper names above to the registry the
// baseline pipeline measures — a drifted name would silently decouple
// `go test -bench` from `hdbench -baseline`.
func TestBenchSuiteNamesMatch(t *testing.T) {
	want := map[string]bool{
		"BenchmarkTable2": true, "BenchmarkTable3": true,
		"BenchmarkFig3TailScheduling": true, "BenchmarkFig4aCluster1": true,
		"BenchmarkFig4bCluster2": true, "BenchmarkFig5TaskSpeedups": true,
		"BenchmarkFig6Breakdown": true, "BenchmarkFig7aTexture": true,
		"BenchmarkFig7bVectorCombine": true, "BenchmarkFig7cVectorMap": true,
		"BenchmarkFig7dRecordStealing": true, "BenchmarkFig7eAggregation": true,
		"BenchmarkSchedulerAblation": true, "BenchmarkStealingGranularity": true,
		"BenchmarkSpeculativeExecution": true, "BenchmarkMapTaskGPU": true,
		"BenchmarkLRMapVM": true, "BenchmarkKMMapVM": true, "BenchmarkBSMapVM": true,
		"BenchmarkWCMapVM": true, "BenchmarkBSMapGPU": true, "BenchmarkCompileTable2": true,
		"BenchmarkEngineTable2": true,
	}
	got := benchsuite.All()
	if len(got) != len(want) {
		t.Fatalf("suite has %d benchmarks, wrappers cover %d", len(got), len(want))
	}
	for _, b := range got {
		if !want[b.Name] {
			t.Errorf("suite benchmark %s has no go-test wrapper", b.Name)
		}
	}
}

// TestShortBenchmarksHaveBaselineEntries: `make bench-check` gates the
// Short subset against BENCH_baseline.json, and perf.Compare only warns
// about a measured benchmark that has no entry, so a missing entry would
// silently stop gating it.
func TestShortBenchmarksHaveBaselineEntries(t *testing.T) {
	f, err := os.Open("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := perf.DecodeBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benchsuite.All() {
		if _, ok := base.Benchmarks[b.Name]; b.Short && !ok {
			t.Errorf("Short benchmark %s has no entry in BENCH_baseline.json", b.Name)
		}
	}
}
