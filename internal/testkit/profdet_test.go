package testkit

import (
	"reflect"
	"testing"

	"repro/internal/mr"
	"repro/internal/perf"
)

// TestProfilerDoesNotChangeOutput pins that attaching the wall-clock phase
// profiler is pure observation: on both cluster backends, a profiled run
// produces byte-identical output to an unprofiled one. A divergence would
// mean the timing hooks leak into evaluation semantics. The profile itself
// pins counts, not nanos: a profiled run on a 4-worker pool must record
// the same phases, entered the same number of times, as the serial one.
func TestProfilerDoesNotChangeOutput(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23, 61, 1013} {
		p := Generate(seed)
		cj, err := Compile(p)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, sched := range []mr.SchedulerKind{mr.CPUOnly, mr.GPUFirst} {
			base, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: sched, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %v: plain run: %v", seed, sched, err)
			}
			prof := perf.New()
			profiled, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: sched, Seed: seed, Prof: prof})
			if err != nil {
				t.Fatalf("seed %d %v: profiled run: %v", seed, sched, err)
			}
			if got, want := TextOutput(profiled), TextOutput(base); got != want {
				t.Errorf("seed %d %v: profiler changed output\nplain:\n%s\nprofiled:\n%s",
					seed, sched, want, got)
			}
			// The profiled run must actually have profiled something.
			if len(prof.Snapshot().Buckets) == 0 {
				t.Errorf("seed %d %v: profiler saw no buckets", seed, sched)
			}
			parProf := perf.New()
			par, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: sched, Seed: seed, Prof: parProf, Workers: 4})
			if err != nil {
				t.Fatalf("seed %d %v: profiled 4-worker run: %v", seed, sched, err)
			}
			if got, want := TextOutput(par), TextOutput(base); got != want {
				t.Errorf("seed %d %v: profiled 4-worker run changed output\nplain:\n%s\nparallel:\n%s",
					seed, sched, want, got)
			}
			if got, want := phaseCounts(parProf), phaseCounts(prof); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %v: phase counts differ across workers\nserial:    %v\n4 workers: %v",
					seed, sched, want, got)
			}
		}
	}
}

// phaseCounts maps each recorded phase to its entry count.
func phaseCounts(p *perf.Profiler) map[string]int64 {
	out := map[string]int64{}
	for name, b := range p.Snapshot().Buckets {
		out[name] = b.Count
	}
	return out
}
