package testkit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/streaming"
)

// Compile translates a generated program into a CompiledJob (both the CPU
// streaming filters and the GPU kernels — the single-source property).
func Compile(p Program) (*mr.CompiledJob, error) { return CompileOpt(p, false) }

// CompileOpt is Compile with explicit control over the SSA optimizer
// (disableOpt=true is -O0), for the opt-on/off metamorphic suite.
func CompileOpt(p Program, disableOpt bool) (*mr.CompiledJob, error) {
	return mr.CompileJob(mr.JobProgram{
		Name:        p.Name,
		MapSrc:      p.MapSrc,
		CombineSrc:  p.CombineSrc,
		ReduceSrc:   p.ReduceSrc,
		NumReducers: p.Reducers,
		DisableOpt:  disableOpt,
	})
}

// Lint runs the full hdlint pass suite over every stage of the program and
// returns the diagnostics at warning severity or above. Generated programs
// must come back empty — the generator's output is lint-clean by
// construction.
func Lint(p Program) []analysis.Diagnostic {
	var bad []analysis.Diagnostic
	stages := []struct{ name, src string }{
		{"map", p.MapSrc}, {"combine", p.CombineSrc}, {"reduce", p.ReduceSrc},
	}
	for _, st := range stages {
		if st.src == "" {
			continue
		}
		for _, d := range analysis.Lint(p.Name+"-"+st.name, st.src) {
			if d.Severity >= analysis.SevWarning {
				bad = append(bad, d)
			}
		}
	}
	return bad
}

// Reference executes the program with the sequential CPU interpreter —
// the plain C semantics the paper's §4 equivalence claim is anchored to:
// one map pass over the whole input, then hash-partition, sort, and reduce
// (no splits, no combiner, no cluster). Its output is what every cluster
// backend must reproduce byte for byte.
func Reference(cj *mr.CompiledJob, input []byte) (string, error) {
	out, _, err := cj.MapF.Run(input)
	if err != nil {
		return "", fmt.Errorf("testkit: reference map: %w", err)
	}
	pairs, err := streaming.ParseKVLines(out, cj.Schema)
	if err != nil {
		return "", fmt.Errorf("testkit: reference map output: %w", err)
	}
	if cj.Program.NumReducers <= 0 {
		// Map-only jobs are canonicalized by key, as the engine writes
		// unordered per-task output files back to HDFS.
		sort.SliceStable(pairs, func(i, j int) bool {
			return kv.Compare(pairs[i].Key, pairs[j].Key) < 0
		})
		return renderPairs(pairs), nil
	}
	parts := make([][]kv.Pair, cj.Program.NumReducers)
	for _, p := range pairs {
		i := kv.Partition(p.Key, cj.Program.NumReducers)
		parts[i] = append(parts[i], p)
	}
	var final []kv.Pair
	for _, part := range parts {
		kv.SortPairs(part)
		outPairs, _, err := streaming.RunReduce(cj.ReduceF, cj.Schema, [][]kv.Pair{part}, streaming.XeonE52680(), nil)
		if err != nil {
			return "", fmt.Errorf("testkit: reference reduce: %w", err)
		}
		final = append(final, outPairs...)
	}
	return renderPairs(final), nil
}

// ClusterOpts parameterizes one simulated cluster run of a generated
// program. The zero value is completed by fillDefaults.
type ClusterOpts struct {
	// Slaves is the node count (default 3).
	Slaves int
	// BlockSize is the HDFS block size driving the input-split boundaries
	// (default 256 bytes — several splits even for small inputs).
	BlockSize int64
	// Scheduler selects the path: mr.CPUOnly is the Hadoop Streaming
	// backend, mr.GPUFirst / mr.TailSched the GPU kernel backend.
	Scheduler mr.SchedulerKind
	// Faults optionally injects a fault plan (metamorphic runs).
	Faults *faults.Plan
	// Seed perturbs HDFS placement and engine scheduling.
	Seed uint64
	// SkipBadRecords / MaxSkippedRecords expose the engine's bad-record
	// skipping policy (poisoned-input metamorphic runs).
	SkipBadRecords    bool
	MaxSkippedRecords int
	// Prof optionally attaches a wall-clock phase profiler to the run (the
	// profiler-determinism tests drive this).
	Prof *perf.Profiler
	// Obs optionally records the run's trace spans and metrics (the
	// worker-count invariance suite compares the dumped bytes).
	Obs *obs.Recorder
	// Workers bounds host-side parallelism for the run's task work; 0 or 1
	// is the serial engine, and every value must produce byte-identical
	// results (the determinism torture suite enforces this).
	Workers int
}

func (o *ClusterOpts) fillDefaults() {
	if o.Slaves == 0 {
		o.Slaves = 3
	}
	if o.BlockSize == 0 {
		o.BlockSize = 256
	}
}

// RunCluster executes the compiled job on a simulated cluster — the same
// wiring as core.Run, opened up so tests can vary split boundaries, slave
// counts, schedulers, and fault plans independently.
func RunCluster(cj *mr.CompiledJob, input []byte, o ClusterOpts) (*mr.JobStats, error) {
	o.fillDefaults()
	setup := cluster.Cluster1().WithSlaves(o.Slaves)
	setup.HDFS.BlockSize = o.BlockSize
	node := setup.Node
	node.MapSlots = 4
	if o.Scheduler == mr.CPUOnly {
		node.GPUs = 0
	}
	fs, err := hdfs.New(setup.HDFS, o.Seed+1)
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
	exec, err := mr.NewFunctionalExecutor(cj, fs, inputPath, mr.HardwareModel{
		CPU:          setup.CPU,
		Device:       dev,
		Opts:         gpurt.AllOptimizations(),
		DiskWriteGBs: setup.DiskWriteGBs,
		HDFSWriteGBs: setup.HDFSWriteGBs,
		Prof:         o.Prof,
	})
	if err != nil {
		return nil, err
	}
	// The generated jobs finish in well under a virtual millisecond, so the
	// heartbeat (and its 10x expiry window, the failure-detection latency)
	// must be far smaller still for fault plans to be detected in-flight.
	return mr.RunJob(mr.ClusterConfig{
		Name:              cj.Program.Name,
		Slaves:            o.Slaves,
		Node:              node,
		Scheduler:         o.Scheduler,
		HeartbeatSec:      1e-6,
		Faults:            o.Faults,
		Seed:              o.Seed + 2,
		SkipBadRecords:    o.SkipBadRecords,
		MaxSkippedRecords: o.MaxSkippedRecords,
		Obs:               o.Obs,
		Workers:           o.Workers,
	}, exec)
}

// TextOutput renders a finished job's output as the tab-separated lines
// Hadoop writes back to HDFS (core.Result.TextOutput's format).
func TextOutput(stats *mr.JobStats) string { return renderPairs(stats.Output) }

func renderPairs(pairs []kv.Pair) string {
	var b strings.Builder
	for _, p := range pairs {
		b.WriteString(p.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// DiffResult is one program's output under every backend.
type DiffResult struct {
	Sequential string // CPU interpreter reference
	Streaming  string // Hadoop Streaming CPU cluster path
	GPU        string // translated GPU kernel path
}

// Agree reports whether all three backends produced byte-identical output.
func (d DiffResult) Agree() bool {
	return d.Sequential == d.Streaming && d.Streaming == d.GPU
}

// RunDifferentialCompiled executes an already-compiled job through all
// three backends.
func RunDifferentialCompiled(cj *mr.CompiledJob, p Program) (DiffResult, error) {
	var res DiffResult
	var err error
	if res.Sequential, err = Reference(cj, p.Input); err != nil {
		return res, fmt.Errorf("testkit: seed %d: %w", p.Seed, err)
	}
	cpu, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: mr.CPUOnly, Seed: p.Seed})
	if err != nil {
		return res, fmt.Errorf("testkit: seed %d: streaming backend: %w", p.Seed, err)
	}
	res.Streaming = TextOutput(cpu)
	gpuRun, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: mr.GPUFirst, Seed: p.Seed})
	if err != nil {
		return res, fmt.Errorf("testkit: seed %d: GPU backend: %w", p.Seed, err)
	}
	res.GPU = TextOutput(gpuRun)
	return res, nil
}
