package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one metric dimension. Series identity is the metric name plus
// the sorted label set.
type Label struct {
	Key, Val string
}

// L is shorthand for building a Label.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry. A nil *Registry hands out nil instruments, whose
// methods are no-ops, so callers never branch on enablement.
type Registry struct {
	families map[string]*family
}

type family struct {
	name, help, typ string
	series          map[string]*series
}

type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

func (m *Registry) family(name, help, typ string) *family {
	f, ok := m.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		m.families[name] = f
	}
	return f
}

func (f *family) lookup(labels []Label) (*series, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := labelKey(ls)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		f.series[key] = s
	}
	return s, key
}

func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Val))
	}
	return b.String()
}

// Counter returns (creating on first use) the monotonically increasing
// series name{labels}. Returns nil on a nil registry.
func (m *Registry) Counter(name, help string, labels ...Label) *Counter {
	if m == nil {
		return nil
	}
	s, _ := m.family(name, help, "counter").lookup(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge returns (creating on first use) the gauge series name{labels}.
func (m *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if m == nil {
		return nil
	}
	s, _ := m.family(name, help, "gauge").lookup(labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns (creating on first use) the histogram series
// name{labels} with the given fixed upper bounds (ascending; +Inf is
// implicit). The bounds of the first creation win.
func (m *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if m == nil {
		return nil
	}
	s, _ := m.family(name, help, "histogram").lookup(labels)
	if s.hist == nil {
		s.hist = &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]uint64, len(buckets)+1)}
	}
	return s.hist
}

// Value reports the current value of the counter or gauge series
// name{labels}, and whether it exists.
func (m *Registry) Value(name string, labels ...Label) (float64, bool) {
	if m == nil {
		return 0, false
	}
	f, ok := m.families[name]
	if !ok {
		return 0, false
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s, ok := f.series[labelKey(ls)]
	if !ok {
		return 0, false
	}
	switch {
	case s.ctr != nil:
		return s.ctr.Value(), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	}
	return 0, false
}

// Counter is a monotonically increasing value. Methods on a nil *Counter
// are no-ops.
type Counter struct{ v float64 }

// Add increases the counter by d (negative deltas are ignored).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can move both ways; it also remembers its peak,
// which boundedness tests (e.g. GPU queue depth) assert against.
type Gauge struct {
	v, peak float64
	set     bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.peak {
		g.peak = v
	}
	g.set = true
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Peak returns the maximum value ever set (0 on nil).
func (g *Gauge) Peak() float64 {
	if g == nil {
		return 0
	}
	return g.peak
}

// Histogram counts observations into fixed buckets (cumulative on export,
// Prometheus-style).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; counts has one extra +Inf slot
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
	h.sum += v
	h.n++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// DurationBuckets is the default histogram bounds (seconds) for task and
// kernel durations: two decades of 1-2-5 around the simulated task scale.
var DurationBuckets = []float64{
	1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
}

// WriteProm writes the registry in the Prometheus text exposition format.
// Output is deterministic: families sort by name, series by label key.
func (m *Registry) WriteProm(w io.Writer) error {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.families))
	for name := range m.families {
		names = append(names, name)
	}
	sort.Strings(names)
	x := newExportWriter(w)
	var labels []byte
	for _, name := range names {
		f := m.families[name]
		if f.help != "" {
			x.buf = appendComment(x.buf, "HELP", f.name, f.help)
		}
		x.buf = appendComment(x.buf, "TYPE", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			labels = appendLabels(labels[:0], s.labels)
			x.buf = appendSeries(x.buf, f.name, labels, s)
			x.endRecord()
		}
	}
	return x.flush()
}

// appendComment renders a "# HELP name text" or "# TYPE name type" line.
func appendComment(b []byte, kind, name, text string) []byte {
	b = append(b, "# "...)
	b = append(b, kind...)
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, text...)
	return append(b, '\n')
}

// appendLabels renders a series' labels as k="v",... without braces.
func appendLabels(b []byte, ls []Label) []byte {
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Val)
	}
	return b
}

// appendSeries renders one series' sample lines; labels is the series'
// appendLabels rendering.
func appendSeries(b []byte, name string, labels []byte, s *series) []byte {
	switch {
	case s.ctr != nil:
		b = appendSample(b, name, "", labels)
		return appendFloatLine(b, s.ctr.v)
	case s.gauge != nil:
		b = appendSample(b, name, "", labels)
		return appendFloatLine(b, s.gauge.v)
	case s.hist != nil:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i]
			b = appendBucket(b, name, labels, bound, cum)
		}
		cum += h.counts[len(h.bounds)]
		b = appendBucket(b, name, labels, math.Inf(1), cum)
		b = appendSample(b, name, "_sum", labels)
		b = appendFloatLine(b, h.sum)
		b = appendSample(b, name, "_count", labels)
		return appendUintLine(b, h.n)
	}
	return b
}

// appendSample starts a sample line: name, suffix and {labels} (nothing
// for an empty label set), then the space before the value.
func appendSample(b []byte, name, suffix string, labels []byte) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendBucket renders one cumulative histogram bucket line, with the le
// bound last as Prometheus convention allows. A rendered float needs no
// escaping, so it is quoted directly.
func appendBucket(b []byte, name string, labels []byte, bound float64, cum uint64) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	b = append(b, labels...)
	if len(labels) > 0 {
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = appendFloat(b, bound)
	b = append(b, `"} `...)
	return appendUintLine(b, cum)
}

func appendFloatLine(b []byte, v float64) []byte {
	return append(appendFloat(b, v), '\n')
}

func appendUintLine(b []byte, v uint64) []byte {
	return append(strconv.AppendUint(b, v, 10), '\n')
}
