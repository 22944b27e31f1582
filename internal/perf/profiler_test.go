package perf

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
	end := p.Phase("cpu-map")
	end()
	if c := p.Collector("cpu-map"); c != nil {
		t.Fatal("nil profiler returned non-nil collector")
	}
	var c *Collector
	c.Flush() // must not panic
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
	outer := s.Buckets[Key{Cat: CatPhase, Name: "outer"}]
	inner := s.Buckets[Key{Cat: CatPhase, Name: "inner"}]
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

func TestCollectorExclusiveTimeAndFlush(t *testing.T) {
	p := New()
	c := p.Collector(PhaseCPUMap)
	c.Enter(CatStmt, "For")
	c.Enter(CatExpr, "Binary")
	c.Exit()
	c.Enter(CatExpr, "Binary")
	c.Exit()
	c.Exit()
	c.Flush()
	c.Flush() // second flush is a no-op, not a double count

	s := p.Snapshot()
	bin := s.Buckets[Key{Phase: PhaseCPUMap, Cat: CatExpr, Name: "Binary"}]
	if bin.Count != 2 {
		t.Fatalf("Binary count = %d, want 2", bin.Count)
	}
	forB := s.Buckets[Key{Phase: PhaseCPUMap, Cat: CatStmt, Name: "For"}]
	if forB.Count != 1 {
		t.Fatalf("For count = %d, want 1", forB.Count)
	}
}

func TestConcurrentCollectorsMerge(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.Collector(PhaseGPUMap)
			for i := 0; i < 1000; i++ {
				c.Enter(CatExpr, "Ident")
				c.Exit()
			}
			c.Flush()
		}()
	}
	wg.Wait()
	b := p.Snapshot().Buckets[Key{Phase: PhaseGPUMap, Cat: CatExpr, Name: "Ident"}]
	if b.Count != 8000 {
		t.Fatalf("merged count = %d, want 8000", b.Count)
	}
}

func TestUnbalancedExitIgnored(t *testing.T) {
	p := New()
	c := p.Collector(PhaseCPUMap)
	c.Exit() // no matching Enter
	c.Flush()
	p.endPhase() // no open phase
	if n := len(p.Snapshot().Buckets); n != 0 {
		t.Fatalf("unbalanced exits created %d buckets", n)
	}
}

func TestReportOutputs(t *testing.T) {
	p := New()
	end := p.Phase(PhaseCPUMap)
	c := p.Collector(PhaseCPUMap)
	c.Enter(CatBuiltin, "emit")
	time.Sleep(time.Millisecond)
	c.Exit()
	c.Flush()
	end()

	s := p.Snapshot()
	var table strings.Builder
	if err := s.WriteTable(&table, 10); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine phases", PhaseCPUMap, "interpreter hot paths", "emit"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, table.String())
		}
	}

	var folded strings.Builder
	if err := s.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "phases;cpu-map ") {
		t.Fatalf("folded output missing phase line:\n%s", folded.String())
	}
	if !strings.Contains(folded.String(), "interp;cpu-map;builtin:emit ") {
		t.Fatalf("folded output missing interp line:\n%s", folded.String())
	}
}

func TestSnapshotEntriesDeterministic(t *testing.T) {
	p := New()
	for _, name := range []string{"b", "a", "c"} {
		c := p.Collector("")
		c.Enter(CatStmt, name)
		c.Exit()
		c.Flush()
	}
	s := p.Snapshot()
	// Zero out times so ordering falls back to key order.
	for k, b := range s.Buckets {
		b.Nanos = 0
		s.Buckets[k] = b
	}
	es := s.Entries()
	var names []string
	for _, e := range es {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("tie-break order = %v", names)
	}
}
