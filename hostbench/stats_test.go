package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort a copy
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		value     float64
		pct       float64
		qualifies bool
	}{
		{n: 10, qualifies: false},
		{n: 11, value: 1, pct: 100.0 / 11, qualifies: true},
		{n: 40, value: 30, pct: 75, qualifies: true},
		{n: 100, value: 90, pct: 90, qualifies: true},
		{n: 1000, value: 990, pct: 99, qualifies: true},
	} {
		xs := seq(c.n)
		v, pct, ok := tail(xs)
		if ok != c.qualifies || v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v, p%v, %v; want %v, p%v, %v", c.n, v, pct, ok, c.value, c.pct, c.qualifies)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("n=%d: tail reordered its input", c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Throughput is total work over total time, so one slow op weighs by its
// duration; a mean of per-op rates would report 6.25 here.
func TestThroughputAggregatesOverTheWindow(t *testing.T) {
	if got := throughput([]float64{10, 10}, []float64{1, 4}); got != 4 {
		t.Errorf("throughput = %v, want 4", got)
	}
	if got := throughput(nil, nil); !math.IsNaN(got) {
		t.Errorf("empty throughput = %v, want NaN", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// At -workers 2 a parent's children run on two goroutines at once: the
// covered part of the parent counts once, not once per child.
func TestSelfTimeUnderOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "op", start: ms(0), end: ms(100), aggName: "agg", agg: ms(5)},
		{id: 2, parent: 1, name: "worker", start: ms(10), end: ms(50)},
		{id: 3, parent: 1, name: "worker", start: ms(30), end: ms(70)},
		{id: 4, parent: 1, name: "late", start: ms(80), end: ms(120)}, // outlives its parent
		{id: 5, parent: 2, name: "leaf", start: ms(20), end: ms(25)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":     ms(100 - 60 - 20 - 5), // covered: [10,70] and [80,100]
		"worker": ms(40-5) + ms(40),
		"late":   ms(40),
		"leaf":   ms(5),
		"agg":    ms(5),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := newRecorder()
	op := r.begin("op", 0)
	r.aggregate(r.begin("mr.RunJob", op), "mr.sampled_exec", ms(1))
	r.end(2)
	r.end(op)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != float64(op) {
		t.Errorf("events = %+v", doc.TraceEvents)
	}
}

func TestNormalizeScalesTimesAndRates(t *testing.T) {
	m := map[string]metric{
		"t": {2, "s"}, "r": {2, "1/s"}, "mb": {2, "MB/s"},
		"n": {2, "count"}, "q": {2, "s/s"},
	}
	normalize(m, 0.5)
	want := map[string]float64{"t": 1, "r": 4, "mb": 4, "n": 2, "q": 2}
	for name, v := range want {
		if m[name].Value != v {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
}
