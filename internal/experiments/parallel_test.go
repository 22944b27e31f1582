package experiments

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/sim"
)

// TestParallelRunsPrivateProfilers pins that sweep rows on different
// goroutines never share a profiler's phase stack: on a 2-worker pool each
// run gets its own non-nil profiler, and the sweep's profiler ends with
// the sum of the runs' phase counts. An unprofiled sweep hands out none.
func TestParallelRunsPrivateProfilers(t *testing.T) {
	pool := sim.NewPool(2)
	defer pool.Close()
	sweep := perf.New()
	const n = 4
	profs, err := parallelRuns(pool, Config{Prof: sweep}, n, func(i int, c Config) (*perf.Profiler, error) {
		for k := 0; k <= i; k++ {
			c.Prof.Phase("row")()
		}
		return c.Prof, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*perf.Profiler]bool{}
	for i, p := range profs {
		if p == nil || p == sweep || seen[p] {
			t.Errorf("run %d got profiler %p (sweep %p): want a distinct private one", i, p, sweep)
		}
		seen[p] = true
	}
	if got, want := sweep.Snapshot().Buckets["row"].Count, int64(n*(n+1)/2); got != want {
		t.Errorf("sweep profiler counts %d row phases, want %d", got, want)
	}

	plain, err := parallelRuns(pool, Config{}, n, func(i int, c Config) (*perf.Profiler, error) {
		return c.Prof, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plain {
		if p != nil {
			t.Errorf("unprofiled sweep handed run %d a profiler", i)
		}
	}
}
