package mr

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/hdfs"
)

// runWC1Slave executes the functional wordcount job on a one-node cluster.
// With a single TaskTracker, blacklisting or crashing the node leaves the
// JobTracker no alternative placement — the edge cases below depend on it.
func runWC1Slave(t *testing.T, plan *faults.Plan) (*JobStats, error) {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{
		BlockSize: 512, Replication: 1, DataNodes: 1,
		DiskReadGBs: 0.5, NetworkGBs: 2, SeekMS: 2,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/input", corpus(300)); err != nil {
		t.Fatal(err)
	}
	exec, err := NewFunctionalExecutor(wcJob(t), fs, "/input", testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	return RunJob(ClusterConfig{
		Name: "wc-recovery-edge", Slaves: 1,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.001, HeartbeatExpirySec: 0.005,
		Seed: 11, Faults: plan,
	}, exec)
}

// TestBlacklistBackoffExpiryReadmission: three task failures blacklist the
// only node in the cluster. A blacklisted node keeps heartbeating, so when
// the backoff window expires it must be re-admitted and finish the job —
// with output identical to the clean run. If expiry never re-admitted the
// node, the job could only stall.
func TestBlacklistBackoffExpiryReadmission(t *testing.T) {
	clean, err := runWC1Slave(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.TaskFail, Task: 0, Attempt: 0, Device: faults.AnyDevice},
		{Kind: faults.TaskFail, Task: 1, Attempt: 0, Device: faults.AnyDevice},
		{Kind: faults.TaskFail, Task: 2, Attempt: 0, Device: faults.AnyDevice},
	}}
	stats, err := runWC1Slave(t, plan)
	if err != nil {
		t.Fatalf("job did not recover after blacklist backoff: %v", err)
	}
	if stats.NodeBlacklists == 0 {
		t.Error("three task failures on one node did not blacklist it")
	}
	if stats.FailedAttempts < 3 {
		t.Errorf("FailedAttempts = %d, want >= 3", stats.FailedAttempts)
	}
	if !reflect.DeepEqual(outputCounts(stats), outputCounts(clean)) {
		t.Error("output after blacklist re-admission differs from the clean run")
	}
}

// TestCorruptOutputOnCrashingOnlyNode: task 0's first output is corrupt
// AND the only node crashes (and restarts) early in the reduce phase,
// while reducers are rejecting that output and reporting fetch failures
// against it. The crash wipes every committed output through the node-loss
// path while the fetch-failure path is mid-escalation; the stale reports
// must not count against the re-executed attempt, and the job must
// converge to the clean output.
func TestCorruptOutputOnCrashingOnlyNode(t *testing.T) {
	clean, err := runWC1Slave(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := clean.MapPhaseEnd + 0.5*(clean.Makespan-clean.MapPhaseEnd)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: -1},
		{Kind: faults.NodeCrash, Node: 0, At: crashAt, RestartAfter: 0.3 * clean.Makespan},
	}}
	stats, err := runWC1Slave(t, plan)
	if err != nil {
		t.Fatalf("job did not recover from corruption racing a crash of the serving node: %v", err)
	}
	if stats.CorruptPartitions == 0 {
		t.Error("corrupt first attempt was never rejected by checksum verification")
	}
	if stats.NodesLost == 0 {
		t.Error("crash was never detected as a lost node")
	}
	if stats.MapsReexecuted == 0 {
		t.Error("neither loss path re-executed any map output")
	}
	if !reflect.DeepEqual(outputCounts(stats), outputCounts(clean)) {
		t.Error("output after corruption+crash differs from the clean run")
	}
}

// TestFetchReportsRaceReexecution: on a multi-node cluster, every reducer
// rejects task 2's corrupt first output and files fetch-failure reports
// while a crash-and-restart takes out a node mid-map-phase. Reports filed
// against an output that a concurrent loss already un-committed must be
// dropped (not charged to the fresh attempt), or the healthy re-execution
// would be declared lost again and the job could burn its attempt cap.
func TestFetchReportsRaceReexecution(t *testing.T) {
	clean, err := runWCFaulted(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MapOutputCorrupt, Task: 2, Attempt: 0, Part: -1},
		{Kind: faults.NodeCrash, Node: 1, At: 0.9 * clean.MapPhaseEnd,
			RestartAfter: 0.4 * clean.Makespan},
	}}
	stats, err := runWCFaulted(t, plan)
	if err != nil {
		t.Fatalf("job did not survive fetch reports racing re-execution: %v", err)
	}
	if stats.FetchFailures == 0 {
		t.Error("corrupt output produced no fetch failures")
	}
	if stats.MapsReexecuted == 0 {
		t.Error("no map output was re-executed")
	}
	if !reflect.DeepEqual(stats.Output, clean.Output) {
		t.Error("output after the report/re-execution race differs from the clean run")
	}
}

// TestGPUDemotionSurvivesNodeRestart: task 0's GPU attempts always fail,
// so the JobTracker demotes the task to the CPU; then the node crashes and
// restarts, losing every map output. The demotion decision lives on the
// JobTracker and must survive the node's re-registration: the re-executed
// task 0 has to run on the CPU. If the restart wiped the demotion, the
// re-execution would go back to the (always-failing) GPU and exhaust the
// attempt cap.
func TestGPUDemotionSurvivesNodeRestart(t *testing.T) {
	clean, err := runWC1Slave(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.TaskFail, Task: 0, Attempt: -1, Device: faults.GPUDevice},
		{Kind: faults.NodeCrash, Node: 0, At: 0.5 * clean.MapPhaseEnd,
			RestartAfter: 0.5 * clean.Makespan},
	}}
	stats, err := runWC1Slave(t, plan)
	if err != nil {
		t.Fatalf("job did not survive GPU demotion racing a node restart: %v", err)
	}
	if stats.GPUFallbacks == 0 {
		t.Error("failing GPU attempts caused no demotion")
	}
	if stats.NodesLost == 0 {
		t.Error("crash was never detected as a lost node")
	}
	if stats.MapsReexecuted == 0 {
		t.Error("restart after map commits re-executed no map outputs")
	}
	if !reflect.DeepEqual(outputCounts(stats), outputCounts(clean)) {
		t.Error("output after demotion+restart differs from the clean run")
	}
}
