package mr

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/hdfs"
)

// runWCIntegrity is runWCFaulted with the skip-bad-records policy exposed.
func runWCIntegrity(t *testing.T, plan *faults.Plan, skip bool, maxSkip int) (*JobStats, error) {
	t.Helper()
	exec := buildExecutor(t, 300, 4)
	return RunJob(ClusterConfig{
		Name: "wc-integrity", Slaves: 4,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.001, HeartbeatExpirySec: 0.005,
		Seed: 11, Faults: plan,
		SkipBadRecords: skip, MaxSkippedRecords: maxSkip,
	}, exec)
}

// TestCorruptionPlansPreserveOutput is the data-integrity headline: under
// any recoverable corruption or fetch-failure plan the job output is
// byte-identical to the clean run's, and the recovery machinery (checksum
// rejection, fetch-failure reports, output re-execution) actually fired.
func TestCorruptionPlansPreserveOutput(t *testing.T) {
	clean, err := runWCFaulted(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Output) == 0 {
		t.Fatal("clean run produced no output")
	}

	cases := []struct {
		name  string
		plan  *faults.Plan
		check func(t *testing.T, s *JobStats)
	}{
		{
			name: "corrupt-one-partition",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.MapOutputCorrupt, Task: 3, Attempt: 0, Part: 0},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.CorruptPartitions == 0 {
					t.Error("checksum verification rejected no fetch")
				}
				if s.MapOutputsLost == 0 {
					t.Error("fetch-failure reports never declared the corrupt output lost")
				}
				if s.MapsReexecuted == 0 {
					t.Error("lost output was never re-executed")
				}
			},
		},
		{
			name: "corrupt-whole-output-first-attempt",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.MapOutputCorrupt, Task: 1, Attempt: 0, Part: -1},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.CorruptPartitions == 0 {
					t.Error("whole-output corruption rejected no fetch")
				}
				if s.MapOutputsLost == 0 {
					t.Error("corrupt output was never declared lost")
				}
			},
		},
		{
			name: "fetch-fail-transient",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.FetchFail, Task: 2, Part: 1, Times: 2},
			}},
			check: func(t *testing.T, s *JobStats) {
				if s.FetchFailures < 2 {
					t.Errorf("FetchFailures = %d, want >= 2", s.FetchFailures)
				}
				if s.Refetches == 0 {
					t.Error("transient fetch failures caused no refetch")
				}
				// Two failures sit under the fetchRetries=3 report
				// threshold: the retry must succeed without escalation.
				if s.MapOutputsLost != 0 {
					t.Errorf("MapOutputsLost = %d, want 0 (failures below report threshold)", s.MapOutputsLost)
				}
			},
		},
		{
			name: "fetch-fail-until-output-lost",
			plan: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.FetchFail, Task: 0, Part: 0, Times: 9},
			}},
			check: func(t *testing.T, s *JobStats) {
				// 9 consecutive failures = 3 reports = the notices
				// threshold: the JobTracker must re-execute the map.
				if s.MapOutputsLost == 0 {
					t.Error("sustained fetch failures never declared the output lost")
				}
				if s.MapsReexecuted == 0 {
					t.Error("lost output was never re-executed")
				}
			},
		},
		{
			name: "background-corruption-rate",
			plan: &faults.Plan{CorruptRate: 0.05, Seed: 5},
			check: func(t *testing.T, s *JobStats) {
				if s.CorruptPartitions == 0 {
					t.Error("5% corruption rate rejected no fetch")
				}
			},
		},
		{
			name: "background-fetch-failure-rate",
			plan: &faults.Plan{FetchFailRate: 0.05, Seed: 6},
			check: func(t *testing.T, s *JobStats) {
				if s.FetchFailures == 0 {
					t.Error("5% fetch-failure rate failed no fetch")
				}
			},
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

// TestSkipBadRecordsExactness pins the skip-mode accounting: poisoning
// records 2 and 5 of split 0 with skip-bad-records on must produce exactly
// the output of a clean run over the input with those two lines removed,
// and RecordsSkipped must count exactly 2.
func TestSkipBadRecordsExactness(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.InputCorrupt, Task: 0, Record: 2},
		{Kind: faults.InputCorrupt, Task: 0, Record: 5},
	}}
	stats, err := runWCIntegrity(t, plan, true, 0)
	if err != nil {
		t.Fatalf("skip-mode run failed: %v", err)
	}
	if stats.RecordsSkipped != 2 {
		t.Errorf("RecordsSkipped = %d, want 2", stats.RecordsSkipped)
	}

	// Split 0 starts at byte 0, so its record indices are global line
	// indices: the reference run uses the corpus minus lines 2 and 5.
	lines := bytes.SplitAfter(corpus(300), []byte("\n"))
	var pruned []byte
	for i, ln := range lines {
		if i == 2 || i == 5 {
			continue
		}
		pruned = append(pruned, ln...)
	}
	fs, err := hdfs.New(hdfs.Config{
		BlockSize: 512, Replication: 2, DataNodes: 4,
		DiskReadGBs: 0.5, NetworkGBs: 2, SeekMS: 2,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/input", pruned); err != nil {
		t.Fatal(err)
	}
	exec, err := NewFunctionalExecutor(wcJob(t), fs, "/input", testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunJob(ClusterConfig{
		Name: "wc-pruned", Slaves: 4,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.001, HeartbeatExpirySec: 0.005,
		Seed: 11,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Output, ref.Output) {
		t.Fatalf("skip-mode output differs from clean run over pruned input (%d vs %d pairs)",
			len(stats.Output), len(ref.Output))
	}
}

// TestPoisonWithoutSkipFailsStructured: with skip-bad-records off a
// poisoned record must fail the job fast with a structured bad-record
// error — the poison draw is deterministic, so retrying is pointless.
func TestPoisonWithoutSkipFailsStructured(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.InputCorrupt, Task: 0, Record: 1},
	}}
	_, err := runWCIntegrity(t, plan, false, 0)
	if err == nil {
		t.Fatal("poisoned record with skip mode off reported success")
	}
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("error is %T, want *JobFailure: %v", err, err)
	}
	if jf.Kind != FailBadRecord || jf.Task != 0 {
		t.Fatalf("got Kind=%v Task=%d, want bad-record task 0 (err: %v)", jf.Kind, jf.Task, err)
	}
	if !errors.Is(err, faults.ErrBadRecord) {
		t.Fatalf("error chain does not reach faults.ErrBadRecord: %v", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error chain does not reach faults.ErrInjected: %v", err)
	}
}

// TestSkipLimitExceededFailsStructured: skip mode is bounded — more
// poisoned records than MaxSkippedRecords fails the job with exact
// accounting of how many were dropped.
func TestSkipLimitExceededFailsStructured(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.InputCorrupt, Task: 0, Record: 0},
		{Kind: faults.InputCorrupt, Task: 0, Record: 3},
	}}
	_, err := runWCIntegrity(t, plan, true, 1)
	if err == nil {
		t.Fatal("job over the skip limit reported success")
	}
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("error is %T, want *JobFailure: %v", err, err)
	}
	if jf.Kind != FailSkipLimitExceeded || jf.Attempts != 2 {
		t.Fatalf("got Kind=%v Attempts=%d, want skip-limit-exceeded with 2 skipped (err: %v)",
			jf.Kind, jf.Attempts, err)
	}
	if !errors.Is(err, faults.ErrBadRecord) {
		t.Fatalf("error chain does not reach faults.ErrBadRecord: %v", err)
	}
}

// TestPermanentCorruptionFailsStructured: an output corrupt on every
// attempt exhausts MaxTaskAttempts through the fetch-failure path and
// fails the job with the corruption cause in the error chain.
func TestPermanentCorruptionFailsStructured(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MapOutputCorrupt, Task: 2, Attempt: -1, Part: -1},
	}}
	_, err := runWCFaulted(t, plan)
	if err == nil {
		t.Fatal("permanently corrupt map output reported success")
	}
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("error is %T, want *JobFailure: %v", err, err)
	}
	if jf.Kind != FailTaskAttemptsExhausted || jf.Task != 2 {
		t.Fatalf("got Kind=%v Task=%d, want attempts-exhausted task 2 (err: %v)", jf.Kind, jf.Task, err)
	}
	if !errors.Is(err, faults.ErrCorruptOutput) {
		t.Fatalf("error chain does not reach faults.ErrCorruptOutput: %v", err)
	}
}

// TestIntegrityMachineryFreeOnCleanPath: checksum-on-write plus
// verify-on-fetch must cost nothing on the simulated clock and leave every
// integrity counter at zero when nothing is corrupt — an empty fault plan
// (verification armed, nothing injected) must reproduce the nil-plan run
// exactly.
func TestIntegrityMachineryFreeOnCleanPath(t *testing.T) {
	clean, err := runWCFaulted(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := runWCFaulted(t, &faults.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if armed.Makespan != clean.Makespan {
		t.Errorf("verification changed the makespan: %g vs %g", armed.Makespan, clean.Makespan)
	}
	if !reflect.DeepEqual(armed.Output, clean.Output) {
		t.Error("verification changed the output")
	}
	for _, s := range []*JobStats{clean, armed} {
		if s.FetchFailures != 0 || s.CorruptPartitions != 0 || s.Refetches != 0 ||
			s.MapOutputsLost != 0 || s.RecordsSkipped != 0 {
			t.Errorf("clean run shows integrity activity: fetchfail=%d corrupt=%d refetch=%d lost=%d skipped=%d",
				s.FetchFailures, s.CorruptPartitions, s.Refetches, s.MapOutputsLost, s.RecordsSkipped)
		}
	}
}
