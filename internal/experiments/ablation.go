package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/workload"
)

// AblationResult holds the design-choice studies DESIGN.md calls out:
// record-stealing granularity (paper §4.1's rejected global-atomic
// alternative) and the scheduler comparison, plus the speculative
// execution extension under a straggler node.
type AblationResult struct {
	// Stealing: map-kernel time by record-distribution strategy, on the
	// skewed kmeans workload.
	StaticMapTime float64
	BlockMapTime  float64
	GlobalMapTime float64

	// Speculation: makespans with one 4x-slower node.
	NoSpecMakespan float64
	SpecMakespan   float64
	SpecLaunched   int
	SpecWon        int
}

// BlockVsStatic returns the per-threadblock stealing gain over static
// partitioning (the Fig. 7d effect).
func (r AblationResult) BlockVsStatic() float64 { return r.StaticMapTime / r.BlockMapTime }

// BlockVsGlobal returns the per-threadblock gain over device-wide
// global-atomic stealing (the §4.1 design argument).
func (r AblationResult) BlockVsGlobal() float64 { return r.GlobalMapTime / r.BlockMapTime }

// SpeculationGain returns the straggler-mitigation speedup.
func (r AblationResult) SpeculationGain() float64 { return r.NoSpecMakespan / r.SpecMakespan }

// Ablations runs both studies.
func Ablations(cfg Config) (*AblationResult, error) {
	cfg.fillDefaults()
	res := &AblationResult{}

	// Stealing granularity on skewed kmeans records. The input must hold
	// several records per thread — distribution strategy is irrelevant
	// when every record gets its own thread.
	inputBytes := cfg.SplitBytes * 16
	if inputBytes < 128<<10 {
		inputBytes = 128 << 10
	}
	km := workload.Kmeans()
	input := km.Gen(cfg.Seed, inputBytes)
	job, err := mr.CompileJobProf(km.JobFor(1), cfg.Prof)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.NewDevice(cluster.Cluster1().Device)
	if err != nil {
		return nil, err
	}
	measure := func(steal, global bool) (float64, error) {
		opts := gpurt.AllOptimizations()
		opts.RecordStealing = steal
		opts.GlobalStealing = global
		tr, err := gpurt.RunTask(dev, job.MapC, nil, input, gpurt.TaskConfig{NumReducers: 4, Opts: opts, Prof: cfg.Prof})
		if err != nil {
			return 0, err
		}
		return tr.Times.Map, nil
	}
	if res.StaticMapTime, err = measure(false, false); err != nil {
		return nil, err
	}
	if res.BlockMapTime, err = measure(true, false); err != nil {
		return nil, err
	}
	if res.GlobalMapTime, err = measure(true, true); err != nil {
		return nil, err
	}

	// Speculative execution under inter-node heterogeneity.
	makeExec := func() *mr.SampledExecutor {
		return &mr.SampledExecutor{
			Splits: 160, Reducers: 0, Slaves: 4,
			CPUDur: []float64{10}, GPUDur: []float64{2},
			NodeSpeed: []float64{4, 1, 1, 1}, Jitter: 0.2,
		}
	}
	run := func(spec bool) (*mr.JobStats, error) {
		return mr.RunJob(mr.ClusterConfig{
			Slaves: 4, Node: mr.NodeConfig{MapSlots: 4, ReduceSlots: 1},
			Scheduler: mr.CPUOnly, HeartbeatSec: 0.5,
			SpeculativeExecution: spec, Seed: cfg.Seed,
		}, makeExec())
	}
	off, err := run(false)
	if err != nil {
		return nil, err
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}
	res.NoSpecMakespan = off.Makespan
	res.SpecMakespan = on.Makespan
	res.SpecLaunched = on.SpeculativeLaunched
	res.SpecWon = on.SpeculativeWon
	return res, nil
}

// FormatAblations renders the studies.
func FormatAblations(r *AblationResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation 1: record-stealing granularity (kmeans map kernel, skewed records)")
	fmt.Fprintf(&b, "  static partitioning : %.6f s\n", r.StaticMapTime)
	fmt.Fprintf(&b, "  per-threadblock     : %.6f s  (%.2fx vs static — the paper's design)\n",
		r.BlockMapTime, r.BlockVsStatic())
	fmt.Fprintf(&b, "  global-atomic queue : %.6f s  (per-block wins %.2fx — §4.1's rejected alternative)\n",
		r.GlobalMapTime, r.BlockVsGlobal())
	fmt.Fprintln(&b, "Ablation 2: speculative execution with one 4x-slower node (extension)")
	fmt.Fprintf(&b, "  speculation off     : %.1f s\n", r.NoSpecMakespan)
	fmt.Fprintf(&b, "  speculation on      : %.1f s  (%.2fx, %d backups, %d won)\n",
		r.SpecMakespan, r.SpeculationGain(), r.SpecLaunched, r.SpecWon)
	return b.String()
}
