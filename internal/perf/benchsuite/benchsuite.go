// Package benchsuite holds the repository's benchmark bodies — one per
// table and figure of the paper's evaluation (§7) plus the design-ablation
// studies — in a registry both `go test -bench` (via bench_test.go's thin
// wrappers) and cmd/hdbench's baseline/regression pipeline can drive.
//
// Keeping the bodies here, outside any _test.go file, lets the non-test
// hdbench binary measure the exact same code `go test -bench=.` runs, so a
// committed BENCH_baseline.json gates regressions on the real benchmarks
// rather than on a parallel re-implementation.
package benchsuite

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Cfg keeps `go test -bench=.` affordable; cmd/hdbench's experiment mode
// defaults are larger.
var Cfg = experiments.Config{SplitBytes: 8 << 10, Variants: 1, TaskScale: 0.25, Seed: 7}

// Bench is one named benchmark in the suite.
type Bench struct {
	// Name matches the `go test -bench` function name (BenchmarkXxx).
	Name string
	// Short marks the cheap subset `hdbench -check -short` runs in CI.
	Short bool
	Fn    func(b *testing.B)
}

// All returns the full suite in deterministic (name) order.
func All() []Bench {
	bs := []Bench{
		{Name: "BenchmarkTable2", Short: true, Fn: Table2},
		{Name: "BenchmarkTable3", Short: true, Fn: Table3},
		{Name: "BenchmarkFig3TailScheduling", Short: true, Fn: Fig3TailScheduling},
		{Name: "BenchmarkFig4aCluster1", Fn: Fig4aCluster1},
		{Name: "BenchmarkFig4bCluster2", Fn: Fig4bCluster2},
		{Name: "BenchmarkFig5TaskSpeedups", Fn: Fig5TaskSpeedups},
		{Name: "BenchmarkFig6Breakdown", Fn: Fig6Breakdown},
		{Name: "BenchmarkFig7aTexture", Fn: Fig7aTexture},
		{Name: "BenchmarkFig7bVectorCombine", Fn: Fig7bVectorCombine},
		{Name: "BenchmarkFig7cVectorMap", Fn: Fig7cVectorMap},
		{Name: "BenchmarkFig7dRecordStealing", Fn: Fig7dRecordStealing},
		{Name: "BenchmarkFig7eAggregation", Fn: Fig7eAggregation},
		{Name: "BenchmarkSchedulerAblation", Short: true, Fn: SchedulerAblation},
		{Name: "BenchmarkStealingGranularity", Fn: StealingGranularity},
		{Name: "BenchmarkSpeculativeExecution", Short: true, Fn: SpeculativeExecution},
		{Name: "BenchmarkMapTaskGPU", Fn: MapTaskGPU},
		{Name: "BenchmarkLRMapVM", Short: true, Fn: LRMapVM},
		{Name: "BenchmarkKMMapVM", Short: true, Fn: KMMapVM},
		{Name: "BenchmarkBSMapVM", Fn: BSMapVM},
		{Name: "BenchmarkWCMapVM", Short: true, Fn: WCMapVM},
		{Name: "BenchmarkBSMapGPU", Short: true, Fn: BSMapGPU},
		{Name: "BenchmarkCompileTable2", Short: true, Fn: CompileTable2},
		{Name: "BenchmarkEngineTable2", Short: true, Fn: EngineTable2},
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	return bs
}

// Select filters the suite: short keeps only the Short subset, and filter
// (when non-empty) keeps benchmarks whose name contains the substring,
// case-insensitively.
func Select(short bool, filter string) []Bench {
	var out []Bench
	f := strings.ToLower(filter)
	for _, b := range All() {
		if short && !b.Short {
			continue
		}
		if f != "" && !strings.Contains(strings.ToLower(b.Name), f) {
			continue
		}
		out = append(out, b)
	}
	return out
}

func Table2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func Table3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func Fig3TailScheduling(b *testing.B) {
	b.ReportAllocs()
	var r experiments.Fig3Result
	var err error
	var rec *obs.Recorder
	for i := 0; i < b.N; i++ {
		rec = obs.NewRecorder()
		r, err = experiments.Fig3(experiments.Config{Obs: rec})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Improvement(), "tail-gain-x")
	// Headline counters flow out through the metrics registry.
	if forced, ok := rec.Metrics().Value("mr_forced_gpu_total", obs.L("sched", "tail")); ok {
		b.ReportMetric(forced, "forced-gpu-tasks")
	}
	if wait, ok := rec.Metrics().Value("mr_gpu_queue_wait_seconds_total", obs.L("sched", "tail")); ok {
		b.ReportMetric(wait, "gpu-queue-wait-s")
	}
}

func Fig4aCluster1(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Fig4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4a(Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var tails []float64
	var best float64
	for _, r := range rows {
		v := r.Speedups["1GPU+tail"]
		tails = append(tails, v)
		if v > best {
			best = v
		}
	}
	b.ReportMetric(experiments.GeoMean(tails), "geomean-speedup-x")
	b.ReportMetric(best, "max-speedup-x")
}

func Fig4bCluster2(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Fig4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4b(Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var best float64
	for _, r := range rows {
		if v := r.Speedups["3GPU+tail"]; v > best {
			best = v
		}
	}
	b.ReportMetric(best, "max-3gpu-speedup-x")
}

func Fig5TaskSpeedups(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig5(Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].OptSpeedup, "max-task-speedup-x")
	b.ReportMetric(rows[0].OptSpeedup, "min-task-speedup-x")
}

func Fig6Breakdown(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Fig6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig6(Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Code == "BS" {
			b.ReportMetric(100*r.Fractions["output write"], "bs-outputwrite-pct")
		}
	}
}

func fig7(b *testing.B, fn func(experiments.Config) ([]experiments.Fig7Row, error)) {
	b.ReportAllocs()
	var rows []experiments.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fn(Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	b.ReportMetric(best, "max-kernel-speedup-x")
}

func Fig7aTexture(b *testing.B)        { fig7(b, experiments.Fig7Texture) }
func Fig7bVectorCombine(b *testing.B)  { fig7(b, experiments.Fig7VectorCombine) }
func Fig7cVectorMap(b *testing.B)      { fig7(b, experiments.Fig7VectorMap) }
func Fig7dRecordStealing(b *testing.B) { fig7(b, experiments.Fig7RecordStealing) }
func Fig7eAggregation(b *testing.B)    { fig7(b, experiments.Fig7Aggregation) }

// SchedulerAblation compares the three schedulers head-to-head on one
// synthetic workload (the DESIGN.md scheduler ablation).
func SchedulerAblation(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder()
	run := func(s mr.SchedulerKind, gpus int) float64 {
		stats, err := mr.RunJob(mr.ClusterConfig{
			Slaves: 8, Node: mr.NodeConfig{MapSlots: 4, ReduceSlots: 2, GPUs: gpus},
			Scheduler: s, HeartbeatSec: 0.5, Obs: rec,
		}, &mr.SampledExecutor{
			Splits: 640, Reducers: 16, Slaves: 8,
			CPUDur: []float64{20}, GPUDur: []float64{2},
			MapOutputBytes: 1 << 20, ReduceCompute: 5, ShuffleGBs: 4, Jitter: 0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		return stats.Makespan
	}
	var cpu, gf, tail float64
	for i := 0; i < b.N; i++ {
		cpu = run(mr.CPUOnly, 0)
		gf = run(mr.GPUFirst, 1)
		tail = run(mr.TailSched, 1)
	}
	b.ReportMetric(cpu/gf, "gpufirst-speedup-x")
	b.ReportMetric(cpu/tail, "tail-speedup-x")
	if hb, ok := rec.Metrics().Value("mr_heartbeats_total", obs.L("sched", "tail")); ok {
		b.ReportMetric(hb/float64(b.N), "tail-heartbeats/op")
	}
}

// StealingGranularity compares the three record-distribution strategies of
// DESIGN.md's ablation list: static partitioning, the paper's
// per-threadblock stealing, and device-wide global-atomic stealing (the
// alternative the paper rejects in §4.1).
func StealingGranularity(b *testing.B) {
	b.ReportAllocs()
	km := workload.Kmeans()
	input := km.Gen(3, 64<<10)
	job, err := mr.CompileJob(km.JobFor(1))
	if err != nil {
		b.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		b.Fatal(err)
	}
	measure := func(steal, global bool) float64 {
		opts := gpurt.AllOptimizations()
		opts.RecordStealing = steal
		opts.GlobalStealing = global
		res, err := gpurt.RunTask(dev, job.MapC, nil, input, gpurt.TaskConfig{
			NumReducers: 4, Opts: opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Times.Map
	}
	var static, block, global float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static = measure(false, false)
		block = measure(true, false)
		global = measure(true, true)
	}
	b.ReportMetric(static/block, "block-vs-static-x")
	b.ReportMetric(global/block, "block-vs-global-x")
}

// SpeculativeExecution measures the extension's effect on a cluster with
// one straggler node (inter-node heterogeneity).
func SpeculativeExecution(b *testing.B) {
	b.ReportAllocs()
	makeExec := func() *mr.SampledExecutor {
		return &mr.SampledExecutor{
			Splits: 160, Reducers: 0, Slaves: 4,
			CPUDur: []float64{10}, GPUDur: []float64{2},
			NodeSpeed: []float64{4, 1, 1, 1}, Jitter: 0.2,
		}
	}
	run := func(spec bool) float64 {
		stats, err := mr.RunJob(mr.ClusterConfig{
			Slaves: 4, Node: mr.NodeConfig{MapSlots: 4, ReduceSlots: 1},
			Scheduler: mr.CPUOnly, HeartbeatSec: 0.5,
			SpeculativeExecution: spec, Seed: 3,
		}, makeExec())
		if err != nil {
			b.Fatal(err)
		}
		return stats.Makespan
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off/on, "speculation-gain-x")
}

// table2Durations holds each Table-2 benchmark's sampled task durations on
// Cluster1 (three 32 KB split variants on one CPU core and on one K40, in
// seconds) and its mean map output bytes: the samples hostbench's
// sched-table2 workload replays, fixed here so the benchmark runs no
// MiniC.
var table2Durations = map[string]struct {
	cpu, gpu    []float64
	outputBytes int64
}{
	"GR": {[]float64{0.001017278373015873, 0.0010121630793650796, 0.0010155726904761905},
		[]float64{0.00017939765179903055, 0.0001773210791387025, 0.0001781434961316182}, 1788},
	"HS": {[]float64{0.0008820988492063492, 0.0008819414206349206, 0.000883422865079365},
		[]float64{0.00019226603821774794, 0.00019154982550335573, 0.00019122293829231912}, 6051},
	"WC": {[]float64{0.0017135915873015873, 0.0017197817222222224, 0.0017205351904761904},
		[]float64{0.0005283274236111111, 0.0005180861057979121, 0.0005159334116797168}, 33596},
	"HR": {[]float64{0.0021434707777777777, 0.002146180706349206, 0.002145367865079365},
		[]float64{0.00027595596700223716, 0.0002760609474272931, 0.0002757564099552573}, 4401},
	"LR": {[]float64{0.002031271246031746, 0.0020322518253968257, 0.002029689380952381},
		[]float64{0.00029330263443791947, 0.0002939339980192021, 0.00029203368428411627}, 14362},
	"KM": {[]float64{0.008617193634920636, 0.008621500063492066, 0.008626116722222221},
		[]float64{0.0007354432731170768, 0.0007332708859060403, 0.0007378968980238628}, 92884},
	"CL": {[]float64{0.007917310492063493, 0.007922137992063493, 0.00792429565079365},
		[]float64{0.0003986667227815063, 0.00039796433557046985, 0.00039867971681580906}, 31153},
	"BS": {[]float64{0.010745670198412698, 0.010745553214285716, 0.010752570619047618},
		[]float64{0.000405886952274422, 0.000406167247413311, 0.0004065241953299776}, 27249},
}

// engineJob is one job of the EngineTable2 sweep.
type engineJob struct {
	cfg  mr.ClusterConfig
	exec func() *mr.SampledExecutor
}

// engineTable2Jobs lays out the sweep as experiments.Fig4a configures it:
// every Table-2 benchmark at its Cluster1 task counts under cpu-only,
// gpu-first and tail scheduling, over 32 KB splits.
func engineTable2Jobs() []engineJob {
	setup := cluster.Cluster1()
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	var jobs []engineJob
	for _, w := range workload.All() {
		d := table2Durations[w.Code]
		pct := float64(w.PctMapCombine) / 100
		mapPhaseCPU := mean(d.cpu) * float64(w.MapTasksC1) / float64(setup.Node.MapSlots*setup.Slaves)
		reduceCompute := 0.0
		if pct < 1 && w.ReduceTasksC1 > 0 {
			reduceCompute = mapPhaseCPU * (1 - pct) / pct
		}
		exec := func() *mr.SampledExecutor {
			return &mr.SampledExecutor{
				Splits: w.MapTasksC1, Reducers: w.ReduceTasksC1, Slaves: setup.Slaves,
				CPUDur: d.cpu, GPUDur: d.gpu,
				RemoteReadPenalty: float64(32<<10) / (setup.HDFS.NetworkGBs * 1e9),
				MapOutputBytes:    d.outputBytes,
				ReduceCompute:     reduceCompute,
				ShuffleGBs:        setup.HDFS.NetworkGBs,
				Jitter:            0.35,
			}
		}
		hb := mean(d.gpu) / 2
		if hb < 1e-5 {
			hb = 1e-5
		}
		for _, sched := range []mr.SchedulerKind{mr.CPUOnly, mr.GPUFirst, mr.TailSched} {
			node := setup.Node
			if sched == mr.CPUOnly {
				node = setup.CPUOnlyNode()
			}
			jobs = append(jobs, engineJob{exec: exec, cfg: mr.ClusterConfig{
				Name:   fmt.Sprintf("%s-%dgpu-%s", w.Code, node.GPUs, sched),
				Slaves: setup.Slaves, Node: node, Scheduler: sched, HeartbeatSec: hb, Seed: 1,
			}})
		}
	}
	return jobs
}

// EngineTable2 is the discrete-event loop's layer benchmark: hostbench's
// sched-table2 sweep without the trace and metrics export. Each op runs
// the 24 jobs through mr.RunJob on sampled executors, with an obs recorder
// attached, so the engine, the scheduler and span recording are all the
// work there is. events/op, the events the engine fired, is exact.
func EngineTable2(b *testing.B) {
	b.ReportAllocs()
	jobs := engineTable2Jobs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		events = 0
		for _, j := range jobs {
			cfg := j.cfg
			cfg.Obs = rec
			stats, err := mr.RunJob(cfg, j.exec())
			if err != nil {
				b.Fatalf("%s: %v", cfg.Name, err)
			}
			events += stats.Events
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// MapTaskGPU measures the wall cost of one functional GPU task (translator
// + SIMT interpreter + runtime), the building block every experiment
// samples: the whole generated input runs as a single split.
func MapTaskGPU(b *testing.B) {
	b.ReportAllocs()
	wc := workload.Wordcount()
	input := wc.Gen(5, 8<<10)
	cfg := Cfg
	cfg.SplitBytes = len(input)
	cfg.Variants = 1
	cfg.TaskScale = 0.01
	cfg.Seed = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// mapStage times one benchmark's map stage — a single sequential pass of
// the compiled mapper over a 32 KB input on the bytecode VM. LR, KM and
// WC are cheap enough for the Short subset, so the CI gate runs MiniC;
// BS (~0.15 s/op) is full-suite only. WC calls getWord and printf once
// per word, so its allocations gate per-call host cost.
func mapStage(b *testing.B, bench *workload.Benchmark) {
	b.ReportAllocs()
	input := bench.Gen(7, 32<<10)
	cj, err := mr.CompileJob(bench.JobFor(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cj.MapF.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

func LRMapVM(b *testing.B) { mapStage(b, workload.LinearRegression()) }
func KMMapVM(b *testing.B) { mapStage(b, workload.Kmeans()) }
func BSMapVM(b *testing.B) { mapStage(b, workload.BlackScholes()) }
func WCMapVM(b *testing.B) { mapStage(b, workload.Wordcount()) }

// BSMapGPU times one GPU map task: gpurt.RunTask of BlackScholes' map
// kernel over a 4 KB split on Cluster2's M2090. The kernel's 30x64 threads
// each run the region fragments and the CNDF function they call on the
// VM, so the gate covers the SIMT model and fragment callees.
func BSMapGPU(b *testing.B) {
	b.ReportAllocs()
	bench := workload.BlackScholes()
	input := bench.Gen(7, 4<<10)
	cj, err := mr.CompileJob(bench.JobFor(2))
	if err != nil {
		b.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.TeslaM2090())
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpurt.TaskConfig{Opts: gpurt.AllOptimizations()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpurt.RunTask(dev, cj.MapC, nil, input, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// CompileTable2 compiles the eight Table-2 jobs as a job's set-up does:
// mr.CompileJob parses each stage program, runs the SSA optimizer on the
// host and kernel targets of every map and combine source and on the
// reducer, and lowers the results to bytecode.
func CompileTable2(b *testing.B) {
	b.ReportAllocs()
	var jobs []mr.JobProgram
	for _, w := range workload.All() {
		jobs = append(jobs, w.JobFor(1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, job := range jobs {
			if _, err := mr.CompileJob(job); err != nil {
				b.Fatal(err)
			}
		}
	}
}
