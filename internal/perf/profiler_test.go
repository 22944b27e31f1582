package perf

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	end := p.Phase("cpu-map")
	end()
	p.Merge(New())
	New().Merge(p)
	if n := len(p.Snapshot().Buckets); n != 0 {
		t.Fatalf("nil profiler snapshot has %d buckets", n)
	}
}

func TestPhaseExclusiveTime(t *testing.T) {
	p := New()
	start := time.Now()
	endOuter := p.Phase("outer")
	time.Sleep(2 * time.Millisecond)
	endInner := p.Phase("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	endOuter()
	elapsed := time.Since(start)

	s := p.Snapshot()
	outer := s.Buckets["outer"]
	inner := s.Buckets["inner"]
	if outer.Count != 1 || inner.Count != 1 {
		t.Fatalf("counts: outer=%d inner=%d, want 1/1", outer.Count, inner.Count)
	}
	if inner.Nanos < int64(time.Millisecond) {
		t.Fatalf("inner self time %d too small", inner.Nanos)
	}
	// Outer's self time excludes inner's full elapsed: together they fit
	// in the externally measured span however long the sleeps overshoot,
	// while any child time leaking into outer would push the sum past it.
	if outer.Nanos < int64(time.Millisecond) {
		t.Fatalf("outer self time %d too small", outer.Nanos)
	}
	if outer.Nanos > elapsed.Nanoseconds()-inner.Nanos {
		t.Fatalf("outer self time %d includes child time (elapsed %d, inner %d)", outer.Nanos, elapsed.Nanoseconds(), inner.Nanos)
	}
}

// TestConcurrentMergesSum: private profilers filled on their own
// goroutines merge into one shared profiler without losing counts.
func TestConcurrentMergesSum(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := New()
			for i := 0; i < 1000; i++ {
				own.Phase(PhaseGPUMap)()
			}
			p.Merge(own)
		}()
	}
	wg.Wait()
	if b := p.Snapshot().Buckets[PhaseGPUMap]; b.Count != 8000 {
		t.Fatalf("merged count = %d, want 8000", b.Count)
	}
}

func TestUnbalancedExitIgnored(t *testing.T) {
	p := New()
	p.endPhase() // no open phase
	if n := len(p.Snapshot().Buckets); n != 0 {
		t.Fatalf("unbalanced exit created %d buckets", n)
	}
}

func TestReportOutputs(t *testing.T) {
	p := New()
	end := p.Phase(PhaseCPUMap)
	time.Sleep(time.Millisecond)
	end()
	p.Phase(PhaseReduce)()

	var table strings.Builder
	if err := p.Snapshot().WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine phases", PhaseCPUMap, PhaseReduce} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, table.String())
		}
	}
	// The slower phase leads.
	if strings.Index(table.String(), PhaseCPUMap) > strings.Index(table.String(), PhaseReduce) {
		t.Fatalf("table not sorted by self time:\n%s", table.String())
	}

	var empty strings.Builder
	if err := New().Snapshot().WriteTable(&empty); err != nil || empty.Len() != 0 {
		t.Fatalf("empty profile wrote %q (err %v), want nothing", empty.String(), err)
	}
}

func TestSnapshotEntriesDeterministic(t *testing.T) {
	p := New()
	for _, name := range []string{"b", "a", "c"} {
		p.Phase(name)()
	}
	s := p.Snapshot()
	// Zero out times so ordering falls back to name order.
	for k, b := range s.Buckets {
		b.Nanos = 0
		s.Buckets[k] = b
	}
	var names []string
	for _, e := range s.Entries() {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("tie-break order = %v", names)
	}
}
