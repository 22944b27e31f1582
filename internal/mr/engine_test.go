package mr

import (
	"testing"

	"repro/internal/faults"
)

// uniformExec builds a simple timing-only workload.
func uniformExec(splits, reducers, slaves int, cpu, gpuDur float64) *SampledExecutor {
	return &SampledExecutor{
		Splits: splits, Reducers: reducers, Slaves: slaves,
		CPUDur: []float64{cpu}, GPUDur: []float64{gpuDur},
		MapOutputBytes: 1 << 16, ReduceCompute: 1, ShuffleGBs: 4,
	}
}

func TestAllTasksCompleteExactlyOnce(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 3, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5,
	}, uniformExec(100, 4, 3, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if total := stats.MapsOnCPU + stats.MapsOnGPU; total != 100 {
		t.Fatalf("completed maps = %d, want 100", total)
	}
}

func TestReduceSlowstartGatesReducers(t *testing.T) {
	// A job whose reducers are instantaneous but whose shuffle dominates:
	// the makespan must still exceed the map phase (reducers cannot finish
	// before the last map, by construction of the shuffle gate).
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 2},
		Scheduler: CPUOnly, HeartbeatSec: 0.5, ReduceSlowstart: 0.2,
	}, uniformExec(40, 4, 2, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	mapPhase := 40.0 * 10 / 4 // 40 tasks, 4 slots
	if stats.Makespan < mapPhase {
		t.Fatalf("makespan %v below map phase %v: reducers finished before maps", stats.Makespan, mapPhase)
	}
}

func TestJobTailThrottleDoesNotStall(t *testing.T) {
	// Very high speedup makes jobTail cover the whole job; the throttle
	// (numGPUs assignments per heartbeat) must still complete every task.
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.5,
	}, uniformExec(60, 0, 2, 100, 1)) // 100x speedup
	if err != nil {
		t.Fatal(err)
	}
	if total := stats.MapsOnCPU + stats.MapsOnGPU; total != 60 {
		t.Fatalf("completed maps = %d, want 60", total)
	}
	// With a 100x GPU, nearly everything should be tail-forced to GPUs.
	if stats.MapsOnGPU < 50 {
		t.Errorf("only %d maps on GPU with 100x speedup", stats.MapsOnGPU)
	}
}

func TestHeartbeatStaggerSpreadsAssignment(t *testing.T) {
	// With as many tasks as slots and uniform durations, every node must
	// receive work (staggered heartbeats must not starve any tracker).
	stats, err := RunJob(ClusterConfig{
		Slaves: 8, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 1,
	}, uniformExec(16, 0, 8, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapsOnCPU != 16 {
		t.Fatalf("maps = %d", stats.MapsOnCPU)
	}
	// Makespan ~ one wave plus at most one heartbeat of skew.
	if stats.Makespan > 5+2 {
		t.Fatalf("makespan %v suggests serialized waves", stats.Makespan)
	}
}

func TestGPUQueueDrainsAfterForcedBurst(t *testing.T) {
	// Force a tail burst larger than the GPU count and ensure the queue
	// drains (job completes) rather than deadlocking.
	stats, err := RunJob(ClusterConfig{
		Slaves: 1, Node: NodeConfig{MapSlots: 1, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.25,
	}, uniformExec(30, 0, 1, 50, 2)) // 25x speedup, tiny cluster
	if err != nil {
		t.Fatal(err)
	}
	if total := stats.MapsOnCPU + stats.MapsOnGPU; total != 30 {
		t.Fatalf("maps = %d, want 30", total)
	}
}

func TestMaxSpeedupPropagatesToJobTracker(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.5,
	}, uniformExec(80, 0, 2, 30, 3)) // 10x
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxSpeedup < 8 || stats.MaxSpeedup > 12 {
		t.Fatalf("MaxSpeedup = %v, want ~10", stats.MaxSpeedup)
	}
}

func TestFailureOnlyAffectsGPUTasks(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 4, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 0.5, Faults: &faults.Plan{GPUFailureRate: 0.9}, Seed: 4,
	}, uniformExec(40, 0, 2, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 0 {
		t.Fatalf("CPU tasks retried under GPU failure injection: %d", stats.Retries)
	}
}

func TestRequeueAfterFailureKeepsLocalityStats(t *testing.T) {
	// The 0.5 rate is extreme enough that some task can fail 4 GPU attempts
	// in a row; raise the cap so the attempt limit (tested elsewhere) does
	// not cut this requeue-accounting test short.
	stats, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5, Faults: &faults.Plan{GPUFailureRate: 0.5}, Seed: 8,
		MaxTaskAttempts: 10,
	}, uniformExec(100, 0, 4, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Skip("no failures drawn")
	}
	if total := stats.MapsOnCPU + stats.MapsOnGPU; total != 100 {
		t.Fatalf("maps completed = %d, want exactly 100 despite %d retries", total, stats.Retries)
	}
}

func TestSchedulerKindString(t *testing.T) {
	if CPUOnly.String() != "cpu-only" || GPUFirst.String() != "gpu-first" || TailSched.String() != "tail" {
		t.Fatal("scheduler names wrong")
	}
	if SchedulerKind(99).String() == "" {
		t.Fatal("unknown scheduler must still print")
	}
}

func TestEmptyJob(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 0.5,
	}, uniformExec(0, 0, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapsOnCPU != 0 || len(stats.Output) != 0 {
		t.Fatalf("empty job produced work: %+v", stats)
	}
}

func TestSingleTaskJob(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5,
	}, uniformExec(1, 0, 4, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapsOnCPU+stats.MapsOnGPU != 1 {
		t.Fatal("single task lost")
	}
}
