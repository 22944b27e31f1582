// Package perf is HeteroDoop's performance observability layer — the
// wall-clock counterpart of package obs's virtual-time recorder. It has
// two halves:
//
//   - An engine-phase profiler (Profiler): wall-clock timing of the
//     phases a job passes through (compile, map, sort, combine, GPU
//     kernels, reduce, ...). A nil *Profiler compiles to a pointer check,
//     so profiling costs nothing when off, and a phase is coarse enough
//     that timing it costs nothing measurable when on. Finer attribution
//     is the Go CPU profiler's job (hdbench -cpuprofile).
//
//   - A benchmark baseline pipeline (Baseline / Compare): a
//     schema-versioned, environment-stamped record of the repo's own
//     benchmark results (BENCH_baseline.json) with noise-aware regression
//     comparison, driven by cmd/hdbench -baseline / -check.
//
// The package is a leaf: it depends only on the standard library, so every
// layer of the system (streaming, gpurt, compiler, mr, core) can import it
// without cycles.
package perf

import (
	"sync"
	"time"
)

// Engine phase names used by the built-in instrumentation, exported so
// tools and tests do not scatter string literals.
const (
	PhaseCPUMap       = "cpu-map"
	PhaseCPUSort      = "cpu-sort"
	PhaseCPUCombine   = "cpu-combine"
	PhaseShuffleMerge = "shuffle-merge"
	PhaseReduce       = "reduce"
	PhaseHostCompile  = "host-compile"
	PhaseGPUTranslate = "gpu-translate"
	PhaseOptimize     = "optimize"
	// PhaseBytecodeCompile covers lowering optimized IR to register
	// bytecode (out-of-SSA, register allocation, instruction selection).
	PhaseBytecodeCompile = "bytecode-compile"
	PhaseGPUHost         = "gpu-host"
	PhaseGPUMap          = "gpu-map-kernel"
	PhaseGPUSort         = "gpu-sort"
	PhaseGPUCombine      = "gpu-combine-kernel"
	PhaseGPUOutput       = "gpu-output"
)

// Bucket accumulates one phase's exclusive (self) time and entry count.
type Bucket struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// Profiler aggregates phase buckets for one job or tool invocation. All
// methods are nil-receiver-safe; a nil *Profiler is the disabled state.
// Phases nest on a single stack, so Phase entry and exit must come from
// one goroutine at a time: phases opened concurrently would pop each
// other's frames. Concurrent work takes a private profiler (New) and
// folds it back with Merge, which, like Snapshot, is goroutine-safe.
type Profiler struct {
	mu      sync.Mutex
	buckets map[string]*Bucket
	phases  []phaseFrame
}

type phaseFrame struct {
	name  string
	start time.Time
	child time.Duration
}

// New returns an enabled profiler.
func New() *Profiler { return &Profiler{buckets: map[string]*Bucket{}} }

var nopEnd = func() {}

// Phase marks entry into a named engine phase and returns its closer.
// Phases nest; a phase's bucket records exclusive wall time (child phases
// subtracted) and one count per entry.
func (p *Profiler) Phase(name string) func() {
	if p == nil {
		return nopEnd
	}
	start := time.Now()
	p.mu.Lock()
	p.phases = append(p.phases, phaseFrame{name: name, start: start})
	p.mu.Unlock()
	return func() { p.endPhase() }
}

func (p *Profiler) endPhase() {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.phases) - 1
	if n < 0 {
		return // unbalanced closer; ignore
	}
	fr := p.phases[n]
	p.phases = p.phases[:n]
	elapsed := now.Sub(fr.start)
	self := elapsed - fr.child
	if self < 0 {
		self = 0
	}
	b := p.bucketLocked(fr.name)
	b.Count++
	b.Nanos += int64(self)
	if n > 0 {
		p.phases[n-1].child += elapsed
	}
}

func (p *Profiler) bucketLocked(name string) *Bucket {
	b := p.buckets[name]
	if b == nil {
		b = &Bucket{}
		p.buckets[name] = b
	}
	return b
}

// Merge folds another profiler's buckets into p. Used by parallel
// execution: a task computed off the owning goroutine charges a private
// profiler, and the owner merges it at the point the serial run would
// have recorded the work, so bucket *counts* stay identical to a serial
// run (wall-clock nanos are nondeterministic either way). Both receiver
// and argument may be nil.
func (p *Profiler) Merge(other *Profiler) {
	if p == nil || other == nil || p == other {
		return
	}
	src := other.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, b := range src.Buckets {
		dst := p.bucketLocked(name)
		dst.Count += b.Count
		dst.Nanos += b.Nanos
	}
}

// Snapshot returns a copy of the accumulated buckets.
func (p *Profiler) Snapshot() Snapshot {
	s := Snapshot{Buckets: map[string]Bucket{}}
	if p == nil {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, b := range p.buckets {
		s.Buckets[name] = *b
	}
	return s
}
