// Package perf is HeteroDoop's performance observability layer — the
// wall-clock counterpart of package obs's virtual-time recorder. It has
// two halves:
//
//   - A hot-path cost profiler (Profiler / Collector): cheap wall-clock
//     timing and counting hooks that the interpreter, the streaming CPU
//     path, the GPU runtime, and the translator carry unconditionally. A
//     nil *Profiler compiles to a pointer check, so profiling costs
//     nothing when off. When on, buckets attribute exclusive (self) time
//     and invocation counts per engine phase, per AST node kind, and per
//     stdlib builtin.
//
//   - A benchmark baseline pipeline (Baseline / Compare): a
//     schema-versioned, environment-stamped record of the repo's own
//     benchmark results (BENCH_baseline.json) with noise-aware regression
//     comparison, driven by cmd/hdbench -baseline / -check.
//
// The package is a leaf: it depends only on the standard library, so every
// layer of the system (interp, streaming, gpurt, compiler, mr, core) can
// import it without cycles.
package perf

import (
	"sync"
	"time"
)

// Bucket categories. Phases measure wall time on the engine's goroutine;
// stmt/expr/builtin buckets measure summed time across interpreter
// instances (which may run concurrently inside a GPU kernel launch, so
// their totals can exceed the enclosing phase's wall time, like CPU time
// exceeds wall time on a multicore run).
const (
	CatPhase   = "phase"
	CatStmt    = "stmt"
	CatExpr    = "expr"
	CatBuiltin = "builtin"
	// CatOpcode buckets hold per-opcode exclusive time from the bytecode
	// VM's dispatch loop (the register-machine analogue of CatStmt/CatExpr).
	CatOpcode = "opcode"
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

// Key identifies one aggregation bucket: the engine phase the cost accrued
// under (empty for phase buckets themselves and for costs outside any
// phase), the category, and the bucket name.
type Key struct {
	Phase string `json:"phase,omitempty"`
	Cat   string `json:"cat"`
	Name  string `json:"name"`
}

// Bucket accumulates exclusive (self) time and invocation counts.
type Bucket struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// Profiler aggregates cost buckets for one job or tool invocation. All
// methods are nil-receiver-safe; a nil *Profiler is the disabled state.
// Bucket merging (Collector.Flush) is goroutine-safe; Phase entry/exit is
// expected from one goroutine at a time (the engine loop), which holds for
// every call site in this repo.
type Profiler struct {
	mu      sync.Mutex
	buckets map[Key]*Bucket
	phases  []phaseFrame
}

type phaseFrame struct {
	name  string
	start time.Time
	child time.Duration
}

// New returns an enabled profiler.
func New() *Profiler { return &Profiler{buckets: map[Key]*Bucket{}} }

// Enabled reports whether p collects anything.
func (p *Profiler) Enabled() bool { return p != nil }

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
	b := p.bucketLocked(Key{Cat: CatPhase, Name: fr.name})
	b.Count++
	b.Nanos += int64(self)
	if n > 0 {
		p.phases[n-1].child += elapsed
	}
}

func (p *Profiler) bucketLocked(k Key) *Bucket {
	b := p.buckets[k]
	if b == nil {
		b = &Bucket{}
		p.buckets[k] = b
	}
	return b
}

// Collector returns a single-goroutine bucket collector whose entries are
// tagged with the given phase name when flushed into p. Returns nil when p
// is nil, which every consumer treats as "profiling off".
func (p *Profiler) Collector(phase string) *Collector {
	if p == nil {
		return nil
	}
	return &Collector{prof: p, phase: phase, buckets: map[catName]*Bucket{}}
}

// Merge folds another profiler's buckets into p. Used by parallel
// execution: a speculative task collects into a private profiler off the
// engine goroutine, and the consumer merges it at the point the serial
// engine would have recorded the work, so bucket *counts* stay identical
// to a serial run (wall-clock nanos are nondeterministic either way).
// Both receiver and argument may be nil.
func (p *Profiler) Merge(other *Profiler) {
	if p == nil || other == nil || p == other {
		return
	}
	other.mu.Lock()
	src := make(map[Key]Bucket, len(other.buckets))
	for k, b := range other.buckets {
		src[k] = *b
	}
	other.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, b := range src {
		dst := p.bucketLocked(k)
		dst.Count += b.Count
		dst.Nanos += b.Nanos
	}
}

// Snapshot returns a copy of the accumulated buckets.
func (p *Profiler) Snapshot() Snapshot {
	s := Snapshot{Buckets: map[Key]Bucket{}}
	if p == nil {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, b := range p.buckets {
		s.Buckets[k] = *b
	}
	return s
}

type catName struct{ cat, name string }

type span struct {
	cat, name string
	start     time.Time
	child     time.Duration
}

// Collector accumulates exclusive-time buckets on one goroutine without
// locking; Flush merges them into the parent Profiler under its lock. The
// interpreter calls Enter/Exit around every statement, expression, and
// builtin invocation, so both must stay allocation-free on the steady
// state (the stack and map amortize).
type Collector struct {
	prof    *Profiler
	phase   string
	stack   []span
	buckets map[catName]*Bucket
}

// Enter pushes a bucket frame. The matching Exit must run on the same
// goroutine. Not nil-safe by design: callers hold the nil check (one
// pointer test) on their own hot path.
func (c *Collector) Enter(cat, name string) {
	c.stack = append(c.stack, span{cat: cat, name: name, start: time.Now()})
}

// Exit pops the current frame, charging its exclusive time.
func (c *Collector) Exit() {
	now := time.Now()
	n := len(c.stack) - 1
	if n < 0 {
		return
	}
	s := c.stack[n]
	c.stack = c.stack[:n]
	elapsed := now.Sub(s.start)
	self := elapsed - s.child
	if self < 0 {
		self = 0
	}
	k := catName{s.cat, s.name}
	b := c.buckets[k]
	if b == nil {
		b = &Bucket{}
		c.buckets[k] = b
	}
	b.Count++
	b.Nanos += int64(self)
	if n > 0 {
		c.stack[n-1].child += elapsed
	}
}

// Flush merges the collected buckets into the profiler and resets the
// collector. Nil-safe, so call sites can flush unconditionally.
func (c *Collector) Flush() {
	if c == nil || c.prof == nil || len(c.buckets) == 0 {
		return
	}
	c.prof.mu.Lock()
	for k, b := range c.buckets {
		dst := c.prof.bucketLocked(Key{Phase: c.phase, Cat: k.cat, Name: k.name})
		dst.Count += b.Count
		dst.Nanos += b.Nanos
	}
	c.prof.mu.Unlock()
	c.buckets = map[catName]*Bucket{}
}
