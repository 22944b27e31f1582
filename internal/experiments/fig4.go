package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/workload"
)

// Fig4Row is one benchmark's end-to-end result on one cluster: job
// speedups over CPU-only Hadoop for each scheduler/GPU-count combination.
type Fig4Row struct {
	Code string
	// CPUOnly is the baseline makespan in seconds.
	CPUOnly float64
	// Speedups maps a configuration label (e.g. "1GPU+tail") to the
	// speedup over CPUOnly.
	Speedups map[string]float64
	// TaskSpeedup is the sampled single-task GPU/CPU ratio feeding the run.
	TaskSpeedup float64
}

// Fig4a reproduces Figure 4a: end-to-end speedup over CPU-only Hadoop on
// Cluster1 (CPU + 1 GPU per node), GPU-first vs tail scheduling, for all
// eight benchmarks with Table-2 task counts.
func Fig4a(cfg Config) ([]Fig4Row, error) {
	cfg.fillDefaults()
	rows, err := fig4Sweep(cfg, cluster.Cluster1(), 1, []int{1}, workload.All())
	if err != nil {
		return nil, err
	}
	sortFig4(rows, "1GPU+tail")
	return rows, nil
}

// Fig4b reproduces Figure 4b: multi-GPU scaling on Cluster2 (1, 2, and 3
// GPUs per node, GPU-first vs tail). KM is excluded, as in the paper.
func Fig4b(cfg Config) ([]Fig4Row, error) {
	cfg.fillDefaults()
	var benches []*workload.Benchmark
	for _, b := range workload.All() {
		if b.OnCluster2() {
			benches = append(benches, b)
		}
	}
	rows, err := fig4Sweep(cfg, cluster.Cluster2(), 2, []int{1, 2, 3}, benches)
	if err != nil {
		return nil, err
	}
	sortFig4(rows, "3GPU+tail")
	return rows, nil
}

// fig4Sweep samples and runs every benchmark, one worker task per
// benchmark: the expensive part is the functional split sampling, so the
// sweep parallelizes cleanly while each benchmark's own job runs stay in
// serial order on its private recorder.
func fig4Sweep(cfg Config, setup cluster.Setup, clusterIdx int, gpuCounts []int,
	benches []*workload.Benchmark) ([]Fig4Row, error) {

	pool, release := cfg.pool()
	defer release()
	rows, err := parallelRuns(pool, cfg, len(benches),
		func(i int, bcfg Config) (Fig4Row, error) {
			b := benches[i]
			sample, err := sampleBenchmark(b, setup, clusterIdx, gpurt.AllOptimizations(), bcfg)
			if err != nil {
				return Fig4Row{}, err
			}
			row, err := fig4Bench(b, setup, clusterIdx, sample, gpuCounts, bcfg)
			if err != nil {
				return Fig4Row{}, err
			}
			return *row, nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func sortFig4(rows []Fig4Row, key string) {
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].Speedups[key] < rows[j].Speedups[key]
	})
}

// fig4Bench runs one benchmark's job under every configuration.
func fig4Bench(b *workload.Benchmark, setup cluster.Setup, clusterIdx int,
	sample *TaskSample, gpuCounts []int, cfg Config) (*Fig4Row, error) {

	mapTasks := b.MapTasksC1
	reducers := b.ReduceTasksC1
	if clusterIdx == 2 {
		mapTasks = b.MapTasksC2
		reducers = b.ReduceTasksC2
	}
	mapTasks = scaledTasks(mapTasks, cfg)

	// Calibrate the reduce phase with Table 2's "% exec time map+combine
	// active" column: the non-map fraction of the CPU-only job is the
	// shuffle+reduce tail.
	pct := float64(b.PctMapCombine) / 100
	mapPhaseCPU := sample.MeanCPU() * float64(mapTasks) / float64(setup.Node.MapSlots*setup.Slaves)
	reduceCompute := 0.0
	if pct < 1 && reducers > 0 {
		reduceCompute = mapPhaseCPU * (1 - pct) / pct
	}
	makeExec := func() *mr.SampledExecutor {
		return &mr.SampledExecutor{
			Splits:            mapTasks,
			Reducers:          reducers,
			Slaves:            setup.Slaves,
			CPUDur:            sample.CPUDur,
			GPUDur:            sample.GPUDur,
			RemoteReadPenalty: float64(cfg.SplitBytes) / (setup.HDFS.NetworkGBs * 1e9),
			MapOutputBytes:    sample.OutputBytes,
			ReduceCompute:     reduceCompute,
			ShuffleGBs:        setup.HDFS.NetworkGBs,
			Jitter:            0.35,
		}
	}
	// The heartbeat interval scales with the task durations (the paper
	// pairs 3s heartbeats with tasks of tens of seconds on 256MB splits;
	// our scaled splits shrink tasks proportionally).
	heartbeat := sample.MeanGPU() / 2
	if heartbeat < 1e-5 {
		heartbeat = 1e-5
	}
	run := func(node mr.NodeConfig, sched mr.SchedulerKind) (float64, error) {
		stats, err := mr.RunJob(mr.ClusterConfig{
			Name:   fmt.Sprintf("%s-%dgpu-%s", b.Code, node.GPUs, sched),
			Slaves: setup.Slaves, Node: node, Scheduler: sched,
			HeartbeatSec: heartbeat,
			Obs:          cfg.Obs,
		}, makeExec())
		if err != nil {
			return 0, err
		}
		return stats.Makespan, nil
	}

	base, err := run(setup.CPUOnlyNode(), mr.CPUOnly)
	if err != nil {
		return nil, err
	}
	row := &Fig4Row{Code: b.Code, CPUOnly: base, Speedups: map[string]float64{}, TaskSpeedup: sample.Speedup()}
	for _, g := range gpuCounts {
		node := setup.Node
		node.GPUs = g
		for _, sched := range []mr.SchedulerKind{mr.GPUFirst, mr.TailSched} {
			m, err := run(node, sched)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%dGPU+%s", g, schedLabel(sched))
			row.Speedups[label] = base / m
		}
	}
	return row, nil
}

func schedLabel(s mr.SchedulerKind) string {
	if s == mr.TailSched {
		return "tail"
	}
	return "gpufirst"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatFig4 renders Fig4 rows with the given configuration columns.
func FormatFig4(title string, rows []Fig4Row, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (speedup over CPU-only Hadoop)\n", title)
	fmt.Fprintf(&b, "%-6s %12s %10s", "Bench", "CPUonly(s)", "task-spd")
	for _, l := range labels {
		fmt.Fprintf(&b, " %14s", l)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.4f %10.1f", r.Code, r.CPUOnly, r.TaskSpeedup)
		for _, l := range labels {
			fmt.Fprintf(&b, " %14.2f", r.Speedups[l])
		}
		fmt.Fprintln(&b)
	}
	var tails []float64
	for _, r := range rows {
		if v, ok := r.Speedups[labels[len(labels)-1]]; ok && v > 0 {
			tails = append(tails, v)
		}
	}
	fmt.Fprintf(&b, "geometric mean (%s): %.2fx\n", labels[len(labels)-1], GeoMean(tails))
	return b.String()
}
