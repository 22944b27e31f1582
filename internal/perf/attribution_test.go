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

// TestAttributionCoversInterpreterTime is the profiler's fidelity gate:
// on a real CPU map task (wordcount with combiner), (a) the engine-phase
// self times must telescope to cover nearly all of the measured wall
// clock, and (b) the interpreter buckets (per-statement, per-expression,
// per-builtin) must account for at least 90% of the cpu-map phase — i.e.
// the hot-path table explains where the time goes rather than leaving an
// anonymous remainder.
func TestAttributionCoversInterpreterTime(t *testing.T) {
	wc := workload.Wordcount()
	input := wc.Gen(11, 32<<10)
	prof := perf.New()
	// JobFor leaves DisableOpt false: the fidelity gate below runs against
	// the SSA-optimized program, the configuration every backend executes.
	cj, err := mr.CompileJobProf(wc.JobFor(1), prof)
	if err != nil {
		t.Fatal(err)
	}
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

	phaseNs := snap.TotalNanos(perf.CatPhase)
	if phaseNs == 0 {
		t.Fatal("no phase buckets recorded")
	}
	// Phases open the moment RunMapTask starts, so their exclusive times
	// telescope to the call's wall clock (compile time is outside `start`).
	if frac := float64(phaseNs) / float64(elapsed.Nanoseconds()); frac < 0.90 {
		t.Errorf("phases cover %.1f%% of RunMapTask wall time, want >= 90%%", 100*frac)
	}

	var mapPhase, interpInMap int64
	for _, e := range snap.Entries() {
		switch {
		case e.Cat == perf.CatPhase && e.Name == perf.PhaseCPUMap:
			mapPhase = e.Nanos
		case e.Phase == perf.PhaseCPUMap:
			interpInMap += e.Nanos
		}
	}
	if mapPhase == 0 {
		t.Fatal("no cpu-map phase bucket")
	}
	if interpInMap == 0 {
		t.Fatal("no interpreter buckets under cpu-map")
	}
	if frac := float64(interpInMap) / float64(mapPhase); frac < 0.90 {
		t.Errorf("interpreter buckets cover %.1f%% of the cpu-map phase, want >= 90%%", 100*frac)
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
	var bcNs int64
	for _, e := range prof.Snapshot().Entries() {
		if e.Cat == perf.CatPhase && e.Name == perf.PhaseBytecodeCompile {
			bcNs += e.Nanos
		}
	}
	if bcNs <= 0 {
		t.Errorf("bytecode-compile phase bucket = %dns, want > 0", bcNs)
	}
}

// TestOptimizePhaseAttributed pins the optimizer's own cost into the
// phase accounting: compiling a job with profiling must record a non-zero
// "optimize" phase bucket, and disabling the optimizer must record none —
// so the hot-path table never hides optimizer time in an anonymous
// remainder.
func TestOptimizePhaseAttributed(t *testing.T) {
	wc := workload.Wordcount()

	prof := perf.New()
	if _, err := mr.CompileJobProf(wc.JobFor(1), prof); err != nil {
		t.Fatal(err)
	}
	var optNs int64
	for _, e := range prof.Snapshot().Entries() {
		if e.Cat == perf.CatPhase && e.Name == perf.PhaseOptimize {
			optNs += e.Nanos
		}
	}
	if optNs <= 0 {
		t.Errorf("optimize phase bucket = %dns, want > 0 with optimization enabled", optNs)
	}

	off := perf.New()
	job := wc.JobFor(1)
	job.DisableOpt = true
	if _, err := mr.CompileJobProf(job, off); err != nil {
		t.Fatal(err)
	}
	for _, e := range off.Snapshot().Entries() {
		if e.Cat == perf.CatPhase && e.Name == perf.PhaseOptimize {
			t.Errorf("optimize phase recorded %dns with DisableOpt set", e.Nanos)
		}
	}
}
