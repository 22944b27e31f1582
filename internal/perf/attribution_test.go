package perf_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mr"
	"repro/internal/perf"
	"repro/internal/streaming"
	"repro/internal/workload"
)

// TestPhasesCoverMapTaskWallClock is the profiler's fidelity gate: on a
// real CPU map task (wordcount with combiner), the engine-phase self
// times must telescope to cover nearly all of the measured wall clock,
// so the phase table explains where the time goes rather than leaving an
// anonymous remainder.
func TestPhasesCoverMapTaskWallClock(t *testing.T) {
	wc := workload.Wordcount()
	input := wc.Gen(11, 32<<10)
	prof := perf.New()
	// JobFor leaves DisableOpt false: the fidelity gate below runs against
	// the SSA-optimized program, the configuration every backend executes.
	cj, err := mr.CompileJobProf(wc.JobFor(1), prof)
	if err != nil {
		t.Fatal(err)
	}
	compileNs := prof.Snapshot().TotalNanos()
	setup := cluster.Cluster1()
	start := time.Now()
	_, err = streaming.RunMapTask(cj.MapF, cj.CombineF, input, streaming.MapTaskConfig{
		Schema:      cj.Schema,
		NumReducers: cj.Program.NumReducers,
		CPU:         setup.CPU,
		Prof:        prof,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	snap := prof.Snapshot()
	for _, name := range []string{perf.PhaseCPUMap, perf.PhaseCPUSort, perf.PhaseCPUCombine} {
		if b := snap.Buckets[name]; b.Count != 1 {
			t.Errorf("phase %s entered %d times, want 1", name, b.Count)
		}
	}
	// Phases open the moment RunMapTask starts, so their exclusive times
	// telescope to the call's wall clock.
	taskNs := snap.TotalNanos() - compileNs
	if frac := float64(taskNs) / float64(elapsed.Nanoseconds()); frac < 0.90 {
		t.Errorf("phases cover %.1f%% of RunMapTask wall time, want >= 90%%", 100*frac)
	}
}

// TestBytecodeCompilePhaseAttributed pins the bytecode compiler's cost
// into the phase accounting: compiling a job must record a non-zero
// "bytecode-compile" phase bucket.
func TestBytecodeCompilePhaseAttributed(t *testing.T) {
	wc := workload.Wordcount()

	prof := perf.New()
	if _, err := mr.CompileJobProf(wc.JobFor(1), prof); err != nil {
		t.Fatal(err)
	}
	if bcNs := prof.Snapshot().Buckets[perf.PhaseBytecodeCompile].Nanos; bcNs <= 0 {
		t.Errorf("bytecode-compile phase bucket = %dns, want > 0", bcNs)
	}
}

// TestOptimizePhaseAttributed pins the optimizer's own cost into the
// phase accounting: compiling a job with profiling must record a non-zero
// "optimize" phase bucket, and disabling the optimizer must record none —
// so the phase table never hides optimizer time in an anonymous
// remainder.
func TestOptimizePhaseAttributed(t *testing.T) {
	wc := workload.Wordcount()

	prof := perf.New()
	if _, err := mr.CompileJobProf(wc.JobFor(1), prof); err != nil {
		t.Fatal(err)
	}
	if optNs := prof.Snapshot().Buckets[perf.PhaseOptimize].Nanos; optNs <= 0 {
		t.Errorf("optimize phase bucket = %dns, want > 0 with optimization enabled", optNs)
	}

	off := perf.New()
	job := wc.JobFor(1)
	job.DisableOpt = true
	if _, err := mr.CompileJobProf(job, off); err != nil {
		t.Fatal(err)
	}
	if b, ok := off.Snapshot().Buckets[perf.PhaseOptimize]; ok {
		t.Errorf("optimize phase recorded %dns with DisableOpt set", b.Nanos)
	}
}
