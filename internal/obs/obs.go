// Package obs is HeteroDoop's observability layer: a span tracer and a
// metrics registry driven by the simulated clock (package sim), plus the
// per-kernel GPU profiles that package gpurt produces. It is the flight
// recorder behind the paper's evaluation figures — per-device task
// timelines (Figs. 3–4), GPU stage breakdowns (Fig. 6), and kernel cycle
// attribution (Fig. 7) all fall out of one recorded job.
//
// Everything is deliberately zero-dependency (stdlib + package sim) and
// deterministic: two runs with the same seed produce byte-identical trace
// and metrics dumps. Every entry point is nil-safe — a nil *Recorder,
// *Tracer, *Registry, or instrument compiles to a no-op, so hot paths in
// the engine and the GPU runtime carry instrumentation unconditionally.
package obs

import (
	"strconv"

	"repro/internal/sim"
)

// Span categories recorded by the MapReduce engine. Exported as constants
// so tests and tools do not scatter string literals.
const (
	CatJob          = "job"
	CatHeartbeat    = "heartbeat"
	CatMapCPU       = "map-cpu"
	CatMapGPU       = "map-gpu"
	CatSpeculative  = "map-speculative"
	CatGPUQueueWait = "gpu-queue-wait"
	CatShuffle      = "shuffle"
	CatReduce       = "reduce"
	CatKernel       = "kernel"
	CatFault        = "fault"
	CatRecovery     = "recovery"
)

// Attr is one key/value annotation on a span. The value is stored typed
// and rendered once, when the trace is exported.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
)

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, kind: attrStr, s: val} }

// Int builds an integer attribute.
func Int(key string, val int) Attr { return Attr{Key: key, kind: attrInt, i: int64(val)} }

// Float builds a float attribute.
func Float(key string, val float64) Attr { return Attr{Key: key, kind: attrFloat, f: val} }

// JSON renders the attribute's value as it appears in the exported trace.
func (a Attr) JSON() string { return string(a.appendJSON(nil)) }

func (a Attr) appendJSON(b []byte) []byte {
	switch a.kind {
	case attrInt:
		return strconv.AppendInt(b, a.i, 10)
	case attrFloat:
		return appendFloat(b, a.f)
	}
	return appendJSONString(b, a.s)
}

// Span is one recorded interval (or instant, when Begin == End and Instant
// is set) of virtual time on a track.
type Span struct {
	Cat     string
	Name    string
	Begin   sim.Time
	End     sim.Time
	PID     int // process row in the trace viewer (cluster node)
	TID     int // thread row within the process (slot lane)
	Instant bool
	Attrs   []Attr
}

// Spans and their attributes are stored in fixed-size chunks, so recording
// never copies what is already recorded.
const (
	spanChunk = 256
	attrChunk = 512
)

// Tracer records spans in event order. The zero value is ready to use;
// a nil *Tracer ignores every call.
type Tracer struct {
	chunks      [][]Span // in recording order; only the last may have room
	attrs       []Attr   // current attribute chunk; spans hold subslices
	procNames   map[int]string
	threadNames map[[2]int]string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span records a completed interval.
func (t *Tracer) Span(cat, name string, begin, end sim.Time, pid, tid int, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < begin {
		end = begin
	}
	t.add(Span{Cat: cat, Name: name, Begin: begin, End: end, PID: pid, TID: tid, Attrs: t.keepAttrs(attrs)})
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(cat, name string, at sim.Time, pid, tid int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.add(Span{Cat: cat, Name: name, Begin: at, End: at, PID: pid, TID: tid, Instant: true, Attrs: t.keepAttrs(attrs)})
}

func (t *Tracer) add(s Span) {
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == cap(t.chunks[n-1]) {
		t.chunks = append(t.chunks, make([]Span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
}

// keepAttrs copies a call's attributes into the tracer's own storage, so
// the caller's variadic slice need not live on the heap.
func (t *Tracer) keepAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	if len(attrs) > cap(t.attrs)-len(t.attrs) {
		t.attrs = make([]Attr, 0, max(attrChunk, len(attrs)))
	}
	start := len(t.attrs)
	t.attrs = append(t.attrs, attrs...)
	return t.attrs[start:len(t.attrs):len(t.attrs)]
}

// NameTrack labels a (pid, tid) pair for the trace viewer. Naming the same
// track twice keeps the first name.
func (t *Tracer) NameTrack(pid, tid int, process, thread string) {
	if t == nil {
		return
	}
	if t.procNames == nil {
		t.procNames = map[int]string{}
		t.threadNames = map[[2]int]string{}
	}
	if _, ok := t.procNames[pid]; !ok && process != "" {
		t.procNames[pid] = process
	}
	key := [2]int{pid, tid}
	if _, ok := t.threadNames[key]; !ok && thread != "" {
		t.threadNames[key] = thread
	}
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Recorder bundles a tracer and a metrics registry for one job (or one
// tool invocation). A nil *Recorder disables everything downstream.
type Recorder struct {
	trace   *Tracer
	metrics *Registry
}

// NewRecorder returns a recorder with a fresh tracer and registry.
func NewRecorder() *Recorder {
	return &Recorder{trace: NewTracer(), metrics: NewRegistry()}
}

// Tracer returns the recorder's tracer, or nil when r is nil.
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.trace
}

// Metrics returns the recorder's registry, or nil when r is nil.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}
