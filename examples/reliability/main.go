// Reliability: fault tolerance and straggler handling.
//
// Paper §5.1: "a task failure is communicated to the Hadoop scheduler so
// that it can reschedule the task; the failed GPU is revived so that
// future tasks can still be issued to it." This example injects GPU task
// failures into a wordcount job and shows that the output is unaffected.
// It then demonstrates two extensions this reproduction adds around the
// paper's future-work note on inter-node heterogeneity (§9): per-node
// speed skew and speculative execution of stragglers.
//
//	go run ./examples/reliability
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mr"
	"repro/internal/workload"
)

func main() {
	wc := workload.Wordcount()
	job, err := core.CompileJob(core.JobSources{
		Name: "wordcount", Map: wc.Job.MapSrc, Combine: wc.Job.CombineSrc,
		Reduce: wc.Job.ReduceSrc, Reducers: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	input := workload.TextCorpus(21, 128<<10)
	setup := cluster.Cluster1()
	setup.Slaves = 4
	setup.HDFS.DataNodes = 4
	setup.HDFS.BlockSize = 4 << 10
	setup.Node.MapSlots = 2

	fmt.Println("== GPU task failure injection (paper §5.1) ==")
	clean, err := core.Run(job, input, core.RunOptions{Setup: &setup, Scheduler: mr.GPUFirst})
	if err != nil {
		log.Fatal(err)
	}
	faulty, err := core.Run(job, input, core.RunOptions{
		Setup: &setup, Scheduler: mr.GPUFirst, Faults: &faults.Plan{GPUFailureRate: 0.3}, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  failure-free run : makespan %.6f s\n", clean.Stats.Makespan)
	fmt.Printf("  30%% GPU failures : makespan %.6f s, %d attempts rescheduled\n",
		faulty.Stats.Makespan, faulty.Stats.Retries)
	if clean.TextOutput() == faulty.TextOutput() {
		fmt.Println("  output identical despite failures ✓")
	} else {
		log.Fatal("  OUTPUT DIVERGED — fault tolerance broken")
	}

	fmt.Println("\n== Straggler node + speculative execution (extension) ==")
	exec := &mr.SampledExecutor{
		Splits: 160, Reducers: 0, Slaves: 4,
		CPUDur: []float64{10}, GPUDur: []float64{2},
		NodeSpeed: []float64{4, 1, 1, 1}, // node 0 is 4x slower
		Jitter:    0.2,
	}
	run := func(spec bool) *mr.JobStats {
		stats, err := mr.RunJob(mr.ClusterConfig{
			Slaves: 4, Node: mr.NodeConfig{MapSlots: 4, ReduceSlots: 1},
			Scheduler: mr.CPUOnly, HeartbeatSec: 0.5,
			SpeculativeExecution: spec, Seed: 3,
		}, exec)
		if err != nil {
			log.Fatal(err)
		}
		return stats
	}
	off := run(false)
	on := run(true)
	fmt.Printf("  without speculation : makespan %.1f s\n", off.Makespan)
	fmt.Printf("  with speculation    : makespan %.1f s (%.2fx), %d backups launched, %d won\n",
		on.Makespan, off.Makespan/on.Makespan, on.SpeculativeLaunched, on.SpeculativeWon)

	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("Hadoop's retry machinery plus HeteroDoop's GPU driver revival")
	fmt.Println("keep heterogeneous jobs exactly-once correct under failures.")
}
