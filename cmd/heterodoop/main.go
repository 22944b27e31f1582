// Command heterodoop runs one of the paper's benchmarks end-to-end on the
// simulated CPU+GPU cluster: it generates a synthetic input, compiles the
// directive-annotated sources for both targets, executes the job
// functionally under the chosen scheduler, and reports virtual-time stats
// plus a sample of the real output.
//
// Usage:
//
//	heterodoop -bench WC -sched tail -input-kb 64
//	heterodoop -bench BS -sched cpu        (baseline Hadoop)
//	heterodoop -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "WC", "benchmark code (GR HS WC HR LR KM CL BS)")
	sched := flag.String("sched", "tail", "scheduler: cpu | gpufirst | tail")
	gpus := flag.Int("gpus", 1, "GPUs per node")
	inputKB := flag.Int("input-kb", 64, "synthetic input size in KB")
	slaves := flag.Int("slaves", 8, "slave nodes in the simulated cluster")
	blockKB := flag.Int("block-kb", 4, "scaled HDFS block size in KB")
	seed := flag.Uint64("seed", 42, "input generator seed")
	faultSpec := flag.String("faults", "", `fault plan, e.g. "gpurate=0.2; crash(node=1,at=0.01,restart=0.02); corrupt(task=0,attempt=0)" (see faults.Parse)`)
	skipBad := flag.Bool("skip-bad-records", false, "drop poisoned input records instead of failing the job")
	maxSkipped := flag.Int("max-skipped", 0, "job-wide cap on skipped bad records (0 = engine default)")
	outLines := flag.Int("out", 10, "output lines to print")
	list := flag.Bool("list", false, "list benchmarks and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus-style metrics dump to this file")
	hdprof := flag.Bool("hdprof", false, "time the run's engine phases in wall-clock time and print the phase table")
	workers := flag.Int("workers", 1, "host worker-pool size for the run's task work; 1 = serial, results are byte-identical for every value")
	flag.Parse()

	if *list {
		for _, b := range workload.All() {
			comb := "no combiner"
			if b.HasCombiner {
				comb = "combiner"
			}
			fmt.Printf("%-3s %-18s %-8s %s\n", b.Code, b.Name, b.Nature, comb)
		}
		return
	}

	b := workload.ByCode(strings.ToUpper(*bench))
	if b == nil {
		fatal(fmt.Errorf("unknown benchmark %q (use -list)", *bench))
	}
	var scheduler mr.SchedulerKind
	switch strings.ToLower(*sched) {
	case "cpu", "cpuonly":
		scheduler = mr.CPUOnly
	case "gpufirst", "gpu-first":
		scheduler = mr.GPUFirst
	case "tail":
		scheduler = mr.TailSched
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *sched))
	}

	var prof *perf.Profiler
	if *hdprof {
		prof = perf.New()
	}
	prog := b.JobFor(1)
	job, err := core.CompileJobProfiled(core.JobSources{
		Name: prog.Name, Map: prog.MapSrc, Combine: prog.CombineSrc,
		Reduce: prog.ReduceSrc, Reducers: prog.NumReducers,
	}, prof)
	if err != nil {
		fatal(err)
	}

	setup := cluster.Cluster1()
	setup.Slaves = *slaves
	setup.HDFS.DataNodes = *slaves
	setup.HDFS.BlockSize = int64(*blockKB) << 10
	if setup.HDFS.Replication > *slaves {
		setup.HDFS.Replication = *slaves
	}

	var rec *obs.Recorder
	if *tracePath != "" || *metricsPath != "" {
		rec = obs.NewRecorder()
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		plan, err = faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}
	input := b.Gen(*seed, *inputKB<<10)
	res, err := core.Run(job, input, core.RunOptions{
		Setup: &setup, Scheduler: scheduler, GPUs: *gpus,
		Faults: plan, Seed: *seed, Obs: rec,
		SkipBadRecords: *skipBad, MaxSkippedRecords: *maxSkipped,
		Profile: prof, Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}

	s := res.Stats
	fmt.Printf("benchmark       : %s (%s, %s)\n", b.Name, b.Code, b.Nature)
	fmt.Printf("scheduler       : %s, %d GPU(s)/node, %d slaves\n", scheduler, *gpus, *slaves)
	fmt.Printf("input           : %d KB -> %d map tasks, %d reducers\n",
		len(input)>>10, s.MapsOnCPU+s.MapsOnGPU, prog.NumReducers)
	fmt.Printf("makespan        : %.6f s (virtual time)\n", s.Makespan)
	fmt.Printf("map placement   : %d on CPU, %d on GPU (%d data-local, %d tail-forced)\n",
		s.MapsOnCPU, s.MapsOnGPU, s.DataLocalMaps, s.ForcedGPUTasks)
	if s.MapTimeCPU > 0 && s.MapTimeGPU > 0 {
		fmt.Printf("task times      : CPU %.6fs, GPU %.6fs (%.1fx)\n",
			s.MapTimeCPU, s.MapTimeGPU, s.MapTimeCPU/s.MapTimeGPU)
	}
	if s.Retries > 0 {
		fmt.Printf("fault tolerance : %d failed GPU attempts rescheduled\n", s.Retries)
	}
	if s.FailedAttempts > 0 || s.NodesLost > 0 || s.LostAttempts > 0 {
		fmt.Printf("faults          : %d attempts failed, %d lost to dead nodes, %d GPU->CPU fallbacks\n",
			s.FailedAttempts, s.LostAttempts, s.GPUFallbacks)
		fmt.Printf("recovery        : %d nodes lost, %d map outputs re-executed, %d reduces restarted, %d blacklists\n",
			s.NodesLost, s.MapsReexecuted, s.ReducesRestarted, s.NodeBlacklists)
	}
	if s.FetchFailures > 0 || s.CorruptPartitions > 0 || s.RecordsSkipped > 0 {
		fmt.Printf("data integrity  : %d fetch failures (%d corrupt partitions), %d refetches, %d outputs lost\n",
			s.FetchFailures, s.CorruptPartitions, s.Refetches, s.MapOutputsLost)
	}
	if s.RecordsSkipped > 0 {
		fmt.Printf("bad records     : %d poisoned records skipped\n", s.RecordsSkipped)
	}
	fmt.Printf("phases          : map phase ended %.6fs, shuffle residual %.6fs\n",
		s.MapPhaseEnd, s.ShuffleResidualSec)
	if s.GPUQueuePeak > 0 {
		fmt.Printf("gpu queue       : peak depth %d, total wait %.6fs\n",
			s.GPUQueuePeak, s.GPUQueueWaitSec)
	}
	fmt.Printf("output          : %d records\n", len(res.Output))
	lines := strings.Split(strings.TrimSpace(res.TextOutput()), "\n")
	for i, line := range lines {
		if i >= *outLines {
			fmt.Printf("  ... %d more\n", len(lines)-i)
			break
		}
		fmt.Printf("  %s\n", line)
	}
	if prof != nil {
		snap := prof.Snapshot()
		fmt.Println()
		snap.WriteTable(os.Stdout)
		if rec != nil {
			rec.Metrics().RecordCostProfile(snap)
		}
	}
	if err := rec.WriteFiles(*tracePath, *metricsPath); err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		fmt.Printf("trace           : %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	if *metricsPath != "" {
		fmt.Printf("metrics         : %s\n", *metricsPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heterodoop:", err)
	os.Exit(1)
}
