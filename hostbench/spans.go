package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans stay in memory and are written
// out once, as a Chrome trace, when the traced run ends.
type span struct {
	id, parent int // parent 0 marks a root span
	op         int // the op the span belongs to (-1: set-up, -2: replay)
	name       string
	start, end time.Duration // since the recorder's epoch
	// aggName/agg carry calls too numerous and too short to keep one span
	// each (a sampled executor answers ~117k calls per op): their summed
	// duration is charged to aggName as a child of this span.
	aggName string
	agg     time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps the run's spans. It is used from one goroutine: every
// call it times is made on the simulator's engine goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	op    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, op: r.op, name: name,
		start: time.Since(r.epoch),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.end = time.Since(r.epoch)
	return s.dur()
}

// aggregate charges d of aggregated child time named name to span id.
func (r *recorder) aggregate(id int, name string, d time.Duration) {
	s := &r.spans[id-1]
	s.aggName = name
	s.agg += d
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it covered by its children, where overlapping
// children (work running on several goroutines at once) count once, minus
// its aggregated child time, which is reported under its own name.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]*span{}
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		covered := unionWithin(s.start, s.end, children[s.id])
		out[s.name] += s.dur() - covered - s.agg
		if s.agg > 0 {
			out[s.aggName] += s.agg
		}
	}
	return out
}

// unionWithin returns the length of [lo,hi] covered by the union of the
// spans' intervals.
func unionWithin(lo, hi time.Duration, kids []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (one
// complete event per span; open in ui.perfetto.dev or chrome://tracing).
// Each op gets its own track.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range spans {
		s := &spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"op":%d,"span":%d,"parent":%d`,
			strconv.Quote(s.name), s.op+3, micros(s.start), micros(s.dur()), s.op, s.id, s.parent)
		if s.agg > 0 {
			fmt.Fprintf(bw, `,%s:%s`, strconv.Quote(s.aggName+"_us"), micros(s.agg))
		}
		bw.WriteString("}}\n")
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func micros(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 3, 64)
}
