package mr

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// runWCFaulted executes the functional wordcount job under the given fault
// plan. A fresh executor is built per run so map-output caching cannot leak
// state between plans.
func runWCFaulted(t *testing.T, plan *faults.Plan) (*JobStats, error) {
	t.Helper()
	exec := buildExecutor(t, 300, 4)
	return RunJob(ClusterConfig{
		Name: "wc-faults", Slaves: 4,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.001, HeartbeatExpirySec: 0.005,
		Seed: 11, Faults: plan,
	}, exec)
}

// TestFaultPlansPreserveOutput is the headline fault-tolerance invariant:
// under any completable fault plan the job output is byte-identical to the
// clean run's.
func TestFaultPlansPreserveOutput(t *testing.T) {
	clean, err := runWCFaulted(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Output) == 0 {
		t.Fatal("clean run produced no output")
	}
	mapEnd, span := clean.MapPhaseEnd, clean.Makespan

	cases := []struct {
		name  string
		plan  *faults.Plan
		check func(t *testing.T, s *JobStats)
	}{
		{
			name: "crash-and-restart-after-map-commits",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.NodeCrash, Node: 1, At: 0.8 * float64(mapEnd), RestartAfter: 0.5 * float64(span)},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.NodesLost == 0 {
					t.Error("crash plan lost no node")
				}
				if s.MapsReexecuted == 0 {
					t.Error("crash after map commits re-executed no map outputs")
				}
			},
		},
		{
			name: "permanent-crash-detected-by-expiry",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.NodeCrash, Node: 2, At: 0.5 * float64(mapEnd)},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.NodesLost != 1 {
					t.Errorf("NodesLost = %d, want 1 (heartbeat expiry)", s.NodesLost)
				}
			},
		},
		{
			name: "permanent-gpu-retirement",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.GPURetire, Node: 0, At: 0.3 * float64(mapEnd)},
				{Kind: faults.GPURetire, Node: 1, At: 0.3 * float64(mapEnd)},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.GPUFallbacks == 0 {
					t.Error("GPU retirement demoted no task to the CPU path")
				}
			},
		},
		{
			name: "gpu-failure-rate",
			plan: &faults.Plan{GPUFailureRate: 0.4},
			check: func(t *testing.T, s *JobStats) {
				if s.Retries == 0 {
					t.Error("0.4 GPU failure rate produced no retries")
				}
			},
		},
		{
			name: "heartbeat-loss-window",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.HeartbeatLoss, Node: 3, At: 0.3 * float64(mapEnd), Duration: 0.4 * float64(span)},
			}},
		},
		{
			name: "straggler-slowdown",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.Slowdown, Node: 0, At: 0, Factor: 5},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, err := runWCFaulted(t, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats.Output, clean.Output) {
				t.Fatalf("output under %s differs from clean run (%d vs %d pairs)",
					tc.name, len(stats.Output), len(clean.Output))
			}
			if tc.check != nil {
				tc.check(t, stats)
			}
		})
	}
}

func TestAllNodesDeadFailsStructured(t *testing.T) {
	// Every node crashes permanently mid-run: the job must fail with a
	// structured cluster-dead error rather than hang or drain silently.
	plan := &faults.Plan{}
	for n := 0; n < 4; n++ {
		plan.Faults = append(plan.Faults, faults.Fault{Kind: faults.NodeCrash, Node: n, At: 2})
	}
	_, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5, Seed: 7, Faults: plan,
	}, uniformExec(60, 2, 4, 10, 2))
	if err == nil {
		t.Fatal("job with every node dead reported success")
	}
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("error is %T, want *JobFailure: %v", err, err)
	}
	if jf.Kind != FailClusterDead {
		t.Fatalf("Kind = %v, want %v (err: %v)", jf.Kind, FailClusterDead, err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error chain does not reach faults.ErrInjected: %v", err)
	}
}

func TestAttemptCapFailsJobStructured(t *testing.T) {
	// A task that fails every attempt on every device must exhaust the
	// default 4 attempts and fail the whole job with a structured error.
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.TaskFail, Task: 3, Attempt: -1, Device: faults.AnyDevice},
	}}
	_, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5, Seed: 3, Faults: plan,
	}, uniformExec(20, 0, 2, 5, 1))
	if err == nil {
		t.Fatal("permanently failing task reported success")
	}
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("error is %T, want *JobFailure: %v", err, err)
	}
	if jf.Kind != FailTaskAttemptsExhausted || jf.Task != 3 || jf.Attempts != 4 {
		t.Fatalf("got Kind=%v Task=%d Attempts=%d, want attempts-exhausted task 3 after 4 attempts (err: %v)",
			jf.Kind, jf.Task, jf.Attempts, err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error chain does not reach faults.ErrInjected: %v", err)
	}
}

// goldenCrashTrace runs a small sampled job with a crash-and-restart plan
// and returns the Chrome trace and Prometheus dump bytes plus the stats.
func goldenCrashTrace(t *testing.T) (trace, prom []byte, stats *JobStats) {
	t.Helper()
	rec := obs.NewRecorder()
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.NodeCrash, Node: 1, At: 6, RestartAfter: 4},
	}}
	stats, err := RunJob(ClusterConfig{
		Name: "golden-fault", Slaves: 2,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.5, Seed: 9, Faults: plan, Obs: rec,
	}, uniformExec(12, 2, 2, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	trace, prom = exportRecorder(t, rec)
	return trace, prom, stats
}

func TestGoldenTraceCrashRecover(t *testing.T) {
	trace, prom, stats := goldenCrashTrace(t)
	if stats.NodesLost != 1 {
		t.Fatalf("golden crash plan lost %d nodes, want 1", stats.NodesLost)
	}
	// Identical plan + seed must reproduce an identical trace byte-for-byte.
	again, _, _ := goldenCrashTrace(t)
	if !bytes.Equal(trace, again) {
		t.Fatal("same fault plan and seed produced different traces")
	}
	checkGolden(t, "fault_trace.golden.json", trace)
	checkGolden(t, "fault_trace.golden.prom", prom)
}
