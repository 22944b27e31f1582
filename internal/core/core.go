// Package core is the public facade of the HeteroDoop reproduction: it
// ties the translator, the CPU (Hadoop Streaming) and GPU execution paths,
// the simulated HDFS, and the heterogeneous scheduler into the workflow of
// the paper — write a sequential MapReduce program in MiniC, annotate it
// with `#pragma mapreduce` directives, and run it on a simulated
// CPU+GPU cluster.
//
// Typical use:
//
//	job, _ := core.CompileJob(core.JobSources{
//		Name: "wordcount", Map: mapSrc, Combine: combineSrc,
//		Reduce: reduceSrc, Reducers: 8,
//	})
//	res, _ := core.Run(job, input, core.RunOptions{})
//	fmt.Println(res.TextOutput())
package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/streaming"
)

// JobSources bundles a job's MiniC programs, mirroring what a HeteroDoop
// user hands to Hadoop Streaming.
type JobSources struct {
	Name string
	// Map must carry a `#pragma mapreduce mapper` directive.
	Map string
	// Combine optionally carries a combiner directive.
	Combine string
	// Reduce is a plain streaming filter (runs on CPUs only, paper §3.1).
	Reduce string
	// Reducers is the reduce-task count; 0 makes the job map-only.
	Reducers int
}

// Job is a compiled HeteroDoop job: one source, two targets (CPU
// executable + GPU kernels).
type Job struct {
	compiled *mr.CompiledJob
}

// CompileJob runs the HeteroDoop translator over the sources.
func CompileJob(src JobSources) (*Job, error) { return CompileJobProfiled(src, nil) }

// CompileJobProfiled is CompileJob with the host-compile and GPU-translate
// phases charged to an optional wall-clock profiler.
func CompileJobProfiled(src JobSources, prof *perf.Profiler) (*Job, error) {
	cj, err := mr.CompileJobProf(mr.JobProgram{
		Name:        src.Name,
		MapSrc:      src.Map,
		CombineSrc:  src.Combine,
		ReduceSrc:   src.Reduce,
		NumReducers: src.Reducers,
	}, prof)
	if err != nil {
		return nil, err
	}
	return &Job{compiled: cj}, nil
}

// CUDA returns the CUDA-flavoured rendering of the generated map kernel
// (and combine kernel when present), as cmd/hdcc prints it.
func (j *Job) CUDA() string {
	out := j.compiled.MapC.CUDA
	if j.compiled.CombineC != nil {
		out += "\n" + j.compiled.CombineC.CUDA
	}
	return out
}

// Warnings returns the translator's privatization warnings.
func (j *Job) Warnings() []string {
	var ws []string
	ws = append(ws, j.compiled.MapC.Kernel.Warnings...)
	if j.compiled.CombineC != nil {
		ws = append(ws, j.compiled.CombineC.Kernel.Warnings...)
	}
	return ws
}

// Schema returns the job's intermediate KV schema.
func (j *Job) Schema() kv.Schema { return j.compiled.Schema }

// RunOptions configures a cluster run.
type RunOptions struct {
	// Setup selects the cluster (default: Cluster1). Use
	// cluster.Cluster1(), cluster.Cluster2(), or a custom Setup.
	Setup *cluster.Setup
	// Scheduler defaults to TailSched when GPUs are present.
	Scheduler mr.SchedulerKind
	// GPUs overrides the per-node GPU count (0 = setup default). Set
	// Scheduler to mr.CPUOnly for the baseline Hadoop run.
	GPUs int
	// Optimizations defaults to gpurt.AllOptimizations().
	Optimizations *gpurt.Options
	// Faults is a deterministic fault-injection plan for the run (see
	// package faults; built from a spec string with faults.Parse).
	Faults *faults.Plan
	// Seed drives placement and failures.
	Seed uint64
	// SkipBadRecords turns on Hadoop-style bad-record skipping: poisoned
	// input records are dropped (and counted) instead of failing the job.
	SkipBadRecords bool
	// MaxSkippedRecords bounds skip mode (0 = engine default).
	MaxSkippedRecords int
	// Obs, when non-nil, records the run's trace spans and metrics.
	Obs *obs.Recorder
	// Profile, when non-nil, receives the run's wall-clock engine-phase
	// times.
	Profile *perf.Profiler
	// Workers bounds host-side parallelism for the run's task work. 0 or 1
	// reproduces the serial engine exactly; any value is byte-identical on
	// every output surface (results, stats, traces, metrics) and differs
	// only in wall-clock time.
	Workers int
	// Pool optionally shares a caller-owned worker pool across runs (used
	// by experiment sweeps); when set, Workers is ignored.
	Pool *sim.Pool
}

// Result is a finished job.
type Result struct {
	Stats  *mr.JobStats
	Output []kv.Pair
}

// TextOutput renders the job output as tab-separated lines, the format
// Hadoop writes back to HDFS.
func (r *Result) TextOutput() string {
	var b strings.Builder
	for _, p := range r.Output {
		b.WriteString(p.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// Run executes the job over input on a simulated cluster, functionally:
// the returned output is the real reduced data, and Stats carries the
// virtual-time makespan and scheduling counters.
func Run(job *Job, input []byte, opts RunOptions) (*Result, error) {
	setup := cluster.Cluster1()
	if opts.Setup != nil {
		setup = *opts.Setup
	}
	if opts.GPUs > 0 {
		setup.Node.GPUs = opts.GPUs
	}
	sched := opts.Scheduler
	if sched == mr.CPUOnly {
		setup.Node.GPUs = 0
	}
	optz := gpurt.AllOptimizations()
	if opts.Optimizations != nil {
		optz = *opts.Optimizations
	}

	fs, err := hdfs.New(setup.HDFS, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	const inputPath = "/job/input"
	if err := fs.Write(inputPath, input); err != nil {
		return nil, err
	}
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		return nil, err
	}
	exec, err := mr.NewFunctionalExecutor(job.compiled, fs, inputPath, mr.HardwareModel{
		CPU:          setup.CPU,
		Device:       dev,
		Opts:         optz,
		DiskWriteGBs: setup.DiskWriteGBs,
		HDFSWriteGBs: setup.HDFSWriteGBs,
		Prof:         opts.Profile,
	})
	if err != nil {
		return nil, err
	}
	stats, err := mr.RunJob(mr.ClusterConfig{
		Name:              job.compiled.Program.Name,
		Slaves:            setup.Slaves,
		Node:              setup.Node,
		Scheduler:         sched,
		HeartbeatSec:      scaledHeartbeat(setup),
		Faults:            opts.Faults,
		Seed:              opts.Seed + 2,
		SkipBadRecords:    opts.SkipBadRecords,
		MaxSkippedRecords: opts.MaxSkippedRecords,
		Obs:               opts.Obs,
		Workers:           opts.Workers,
		Pool:              opts.Pool,
	}, exec)
	if err != nil {
		return nil, err
	}
	return &Result{Stats: stats, Output: stats.Output}, nil
}

// scaledHeartbeat shrinks the 3s heartbeat in proportion to the scaled
// block size (tasks on scaled splits finish in milliseconds).
func scaledHeartbeat(setup cluster.Setup) float64 {
	scale := float64(setup.HDFS.BlockSize) / float64(256<<20)
	hb := setup.HeartbeatSec * scale * 50
	if hb < 1e-5 {
		hb = 1e-5
	}
	return hb
}

// TaskComparison is a single-task CPU-vs-GPU measurement (the Figure 5/6
// primitive) exposed for examples and tools.
type TaskComparison struct {
	CPUTime  float64
	GPUTime  float64
	GPUTimes gpurt.StageTimes
	Records  int
	KVPairs  int
	Speedup  float64
}

// CompareTask runs one data-local map(+combine) task on both devices of
// the setup and reports the timing comparison.
func CompareTask(job *Job, input []byte, setup cluster.Setup, optz gpurt.Options) (*TaskComparison, error) {
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		return nil, err
	}
	readTime := float64(len(input))/(setup.HDFS.DiskReadGBs*1e9) + setup.HDFS.SeekMS/1000
	cj := job.compiled
	cpuRes, err := streaming.RunMapTask(cj.MapF, cj.CombineF, input, streaming.MapTaskConfig{
		Schema:        cj.Schema,
		NumReducers:   cj.Program.NumReducers,
		CPU:           setup.CPU,
		InputReadTime: readTime,
		DiskWriteGBs:  setup.DiskWriteGBs,
		HDFSWriteGBs:  setup.HDFSWriteGBs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: CPU task: %w", err)
	}
	gpuRes, err := gpurt.RunTask(dev, cj.MapC, cj.CombineC, input, gpurt.TaskConfig{
		NumReducers:   cj.Program.NumReducers,
		Opts:          optz,
		InputReadTime: readTime,
		DiskWriteGBs:  setup.DiskWriteGBs,
		HDFSWriteGBs:  setup.HDFSWriteGBs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: GPU task: %w", err)
	}
	cmp := &TaskComparison{
		CPUTime:  cpuRes.Times.Total(),
		GPUTime:  gpuRes.Total(),
		GPUTimes: gpuRes.Times,
		Records:  gpuRes.Records,
		KVPairs:  gpuRes.KVPairs,
	}
	if cmp.GPUTime > 0 {
		cmp.Speedup = cmp.CPUTime / cmp.GPUTime
	}
	return cmp, nil
}
