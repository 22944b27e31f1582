package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func FuzzQuoteJSON(f *testing.F) {
	for _, s := range []string{
		"", "map-12", "<>&", `"`, `\`, "\x00\x01\b\f\n\r\t\x1f", "\x7f",
		"\u2028\u2029", "\xff\xfe", "bad \xc3( utf8", "nœud-Ωμέγα",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want = append([]byte("x:"), want...)
		if got := appendJSONString([]byte("x:"), s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}

// recordSpans records n spans shaped like the engine's: intervals and
// instants on named tracks, with Int, Float and Str attributes.
func recordSpans(n int) *Tracer {
	tr := NewTracer()
	for node := 0; node < 4; node++ {
		tr.NameTrack(node, 1, "node"+strconv.Itoa(node), "cpu")
		tr.NameTrack(node, 2, "node"+strconv.Itoa(node), "gpu")
	}
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 1e-3
		switch i % 3 {
		case 0:
			tr.Span(CatMapCPU, "map", at, at+5e-4, i%4, 1, Int("split", i), Str("state", "won"))
		case 1:
			tr.Span(CatKernel, "map", at, at+2.5e-4, i%4, 2, Float("cycles", float64(i)*1.5), Float("occupancy", 0.75))
		default:
			tr.Instant(CatHeartbeat, "hb", at, i%4, 0)
		}
	}
	return tr
}

// TestChromeTraceExportAllocsIndependentOfSpanCount gates the export path
// on allocations: streaming a trace costs the same number of allocations
// whatever its length.
func TestChromeTraceExportAllocsIndependentOfSpanCount(t *testing.T) {
	allocs := func(n int) float64 {
		tr := recordSpans(n)
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(10000); small != large {
		t.Fatalf("exporting 1000 spans made %v allocations, 10000 spans %v; want equal", small, large)
	}
}

// writeLog records the size of every Write.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

func checkBoundedWrites(t *testing.T, w *writeLog) {
	t.Helper()
	if len(w.sizes) < 2 {
		t.Fatalf("%d bytes arrived in %d write(s); want several", w.Len(), len(w.sizes))
	}
	for _, n := range w.sizes {
		if n > exportBufSize {
			t.Fatalf("a write of %d bytes exceeds the %d-byte buffer", n, exportBufSize)
		}
	}
}

func TestChromeTraceStreamsEveryEventInOrder(t *testing.T) {
	const n = 5 * spanChunk
	tr := recordSpans(n)
	var w writeLog
	if err := tr.WriteChromeTrace(&w); err != nil {
		t.Fatal(err)
	}
	checkBoundedWrites(t, &w)
	var doc struct {
		TraceEvents []struct {
			Ph string
			Ts float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	events := doc.TraceEvents[4+8:] // after the process and thread names
	if len(events) != n {
		t.Fatalf("%d span events, want %d", len(events), n)
	}
	for i := 1; i < n; i++ {
		if events[i].Ts <= events[i-1].Ts {
			t.Fatalf("event %d (ts %v) not after event %d (ts %v)", i, events[i].Ts, i-1, events[i-1].Ts)
		}
	}
}

func TestPromStreamsEverySeriesInOrder(t *testing.T) {
	reg := NewRegistry()
	var want strings.Builder
	want.WriteString("# HELP c_total many series\n# TYPE c_total counter\n")
	const n = 3000
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("%05d", i)
		reg.Counter("c_total", "many series", L("node", "n"+v), L("a", v)).Add(float64(i) + 0.5)
		fmt.Fprintf(&want, "c_total{a=%q,node=%q} %v\n", v, "n"+v, float64(i)+0.5)
	}
	var w writeLog
	if err := reg.WriteProm(&w); err != nil {
		t.Fatal(err)
	}
	checkBoundedWrites(t, &w)
	if w.String() != want.String() {
		t.Fatal("streamed dump differs from the line-by-line rendering")
	}
}

var errSink = errors.New("sink failed")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errSink }

func TestExportReportsWriteErrors(t *testing.T) {
	if err := recordSpans(10).WriteChromeTrace(failingWriter{}); !errors.Is(err, errSink) {
		t.Fatalf("WriteChromeTrace error = %v, want %v", err, errSink)
	}
	reg := NewRegistry()
	reg.Counter("c", "").Inc()
	if err := reg.WriteProm(failingWriter{}); !errors.Is(err, errSink) {
		t.Fatalf("WriteProm error = %v, want %v", err, errSink)
	}
}

// TestMergeKeepsTracersApart pins that Merge shares chunks without letting
// either tracer's later spans overwrite the other's.
func TestMergeKeepsTracersApart(t *testing.T) {
	a, b := NewTracer(), NewTracer()
	a.Span("a", "a0", 0, 1, 0, 0)
	b.Span("b", "b0", 0, 1, 0, 0, Int("i", 0))
	a.Merge(b)
	a.Span("a", "a1", 1, 2, 0, 0, Str("s", "a"))
	b.Span("b", "b1", 1, 2, 0, 0, Int("i", 1))
	render := func(tr *Tracer) string {
		var parts []string
		for _, s := range tr.Spans() {
			part := s.Name
			for _, at := range s.Attrs {
				part += " " + at.Key + "=" + at.JSON()
			}
			parts = append(parts, part)
		}
		return strings.Join(parts, ",")
	}
	if got, want := render(a), `a0,b0 i=0,a1 s="a"`; got != want {
		t.Fatalf("merged tracer = %s, want %s", got, want)
	}
	if got, want := render(b), "b0 i=0,b1 i=1"; got != want {
		t.Fatalf("merged-from tracer = %s, want %s", got, want)
	}
}
