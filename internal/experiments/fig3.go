package experiments

import (
	"fmt"

	"repro/internal/mr"
)

// Fig3Result reproduces the Figure-3 thought experiment: 19 equal tasks,
// one node with 2 CPU slots and 1 GPU that is 6x faster.
type Fig3Result struct {
	Tasks          int
	CPUSlots       int
	GPUs           int
	GPUSpeedup     float64
	GPUFirstTime   float64
	TailTime       float64
	ForcedGPUTasks int
}

// Improvement is the makespan reduction of tail scheduling.
func (r Fig3Result) Improvement() float64 {
	if r.GPUFirstTime == 0 {
		return 0
	}
	return r.GPUFirstTime / r.TailTime
}

// Fig3 runs the two schedulers on the canonical scenario. Only cfg.Obs
// and cfg.Workers are consulted: the scenario's task mix is fixed
// by the paper. The two runs execute concurrently when workers allow.
func Fig3(cfg Config) (Fig3Result, error) {
	const (
		tasks   = 19
		cpuTask = 60.0
		gpuTask = 10.0
	)
	exec := func() *mr.SampledExecutor {
		return &mr.SampledExecutor{
			Splits: tasks, Reducers: 0, Slaves: 1,
			CPUDur: []float64{cpuTask}, GPUDur: []float64{gpuTask},
		}
	}
	pool, release := cfg.pool()
	defer release()
	scheds := []mr.SchedulerKind{mr.GPUFirst, mr.TailSched}
	stats, err := parallelRuns(pool, cfg, len(scheds),
		func(i int, c Config) (*mr.JobStats, error) {
			s := scheds[i]
			return mr.RunJob(mr.ClusterConfig{
				Name:   "fig3-" + s.String(),
				Slaves: 1, Node: mr.NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
				Scheduler: s, HeartbeatSec: 0.5,
				Obs: c.Obs,
			}, exec())
		})
	if err != nil {
		return Fig3Result{}, err
	}
	gf, tail := stats[0], stats[1]
	return Fig3Result{
		Tasks: tasks, CPUSlots: 2, GPUs: 1, GPUSpeedup: cpuTask / gpuTask,
		GPUFirstTime: gf.Makespan, TailTime: tail.Makespan,
		ForcedGPUTasks: tail.ForcedGPUTasks,
	}, nil
}

// FormatFig3 renders the scenario result.
func FormatFig3(r Fig3Result) string {
	return fmt.Sprintf(
		"Figure 3: Tail scheduling vs GPU-first (%d tasks, %d CPU slots, %d GPU at %.0fx)\n"+
			"  GPU-first makespan: %7.1f s\n"+
			"  Tail     makespan: %7.1f s   (%.2fx better, %d tasks forced to GPU)\n",
		r.Tasks, r.CPUSlots, r.GPUs, r.GPUSpeedup,
		r.GPUFirstTime, r.TailTime, r.Improvement(), r.ForcedGPUTasks)
}
