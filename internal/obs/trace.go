package obs

import (
	"io"
	"sort"
	"strconv"
)

// WriteChromeTrace writes the recorded spans as a Chrome trace_event JSON
// object (the "JSON Object Format": {"traceEvents": [...]}) that loads
// directly in chrome://tracing or Perfetto. Intervals become complete
// events (ph "X"), instants become instant events (ph "i"), and named
// tracks emit process_name / thread_name metadata first. Timestamps are
// virtual-time microseconds. Output is byte-deterministic for a given
// recording.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	x := newExportWriter(w)
	x.buf = append(x.buf, `{"traceEvents":[`...)
	sep := "\n"
	next := func() {
		x.buf = append(x.buf, sep...)
		sep = ",\n"
	}

	// Metadata events, sorted for determinism.
	pids := make([]int, 0, len(t.procNames))
	for pid := range t.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		next()
		x.buf = appendTrackName(x.buf, pid, 0, "process_name", t.procNames[pid])
		x.endRecord()
	}
	tkeys := make([][2]int, 0, len(t.threadNames))
	for k := range t.threadNames {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		next()
		x.buf = appendTrackName(x.buf, k[0], k[1], "thread_name", t.threadNames[k])
		x.endRecord()
	}

	for _, c := range t.chunks {
		for i := range c {
			next()
			x.buf = appendSpan(x.buf, &c[i])
			x.endRecord()
		}
	}
	x.buf = append(x.buf, "\n],\"displayTimeUnit\":\"ms\"}\n"...)
	return x.flush()
}

// appendTrackName renders a process_name or thread_name metadata event.
func appendTrackName(b []byte, pid, tid int, event, name string) []byte {
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":"`...)
	b = append(b, event...)
	b = append(b, `","args":{"name":`...)
	b = appendJSONString(b, name)
	return append(b, `}}`...)
}

func appendSpan(b []byte, s *Span) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, s.Cat)
	if s.Instant {
		b = append(b, `,"ph":"i","s":"t"`...)
	} else {
		b = append(b, `,"ph":"X"`...)
	}
	b = append(b, `,"ts":`...)
	b = appendFloat(b, float64(s.Begin)*1e6)
	if !s.Instant {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, float64(s.End-s.Begin)*1e6)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(s.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(s.TID), 10)
	if len(s.Attrs) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range s.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			b = a.appendJSON(b)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}
