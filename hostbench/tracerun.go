package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// layerMetrics are the traced run's per-layer metrics, in report order.
// Times and counts are per op unless the name says otherwise.
var layerMetrics = []struct{ name, unit string }{
	{"minic.parse_s", "s"},
	{"ir.optimize_s", "s"},
	{"bytecode.compile_s", "s"},
	{"compiler.compile_s", "s"},
	{"mr.engine_self_s", "s"},
	{"mr.map_calls", "count"},
	{"mr.map_computes", "count"},
	{"mr.reduce_calls", "count"},
	{"streaming.map_task_s", "s"},
	{"streaming.vm_map_s", "s"},
	{"streaming.vm_combine_s", "s"},
	{"streaming.parse_kv_s", "s"},
	{"streaming.reduce_s", "s"},
	{"kv.sort_s", "s"},
	{"kv.merge_s", "s"},
	{"gpurt.task_s", "s"},
	{"gpurt.tasks", "count"},
	{"gpurt.cpu_per_wall", "s/s"},
	{"seqfile.sum_s", "s"},
	{"seqfile.sums", "count"},
	{"pool.exec_wait_s", "s"},
	{"pool.cpu_per_wall", "s/s"},
	{"pool.extra_cpu_s", "s"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"obs.export_s", "s"},
	{"obs.trace_mb", "MB"},
	{"unattributed_s", "s"},
	{"trace.overhead_s", "s"},
}

// gcClock reads the runtime's GC CPU, used CPU and GC cycle counters.
func gcClock() (gcCPU, usedCPU, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64(), float64(s[3].Value.Uint64())
}

// hostOp is one op's host wall clock and process CPU time.
type hostOp struct{ wall, cpu float64 }

func timeUntraced(in *instance, workers int) (hostOp, outcome, error) {
	c0, t0 := cpuTime(), time.Now()
	o, err := in.untraced(workers)
	return hostOp{time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()}, o, err
}

// runTraced is the traced run. It times set-up layer by layer, then
// repeats a cycle of three ops for the window: an untraced op at the
// workload's worker count, a traced op, and an untraced op at the other of
// -workers 1 and 2 (for pool.extra_cpu_s). Tracing overhead is the traced
// ops' median minus the first kind's.
func runTraced(in *instance, window time.Duration, tracePath string, report io.Writer) (result, error) {
	rec := newRecorder()
	rec.op = -1
	var clk hostClock
	var compiles []map[string]float64
	for i := 0; i < setupSamples; i++ {
		vals := map[string]float64{}
		if err := compileLayers(in.programs, rec, vals); err != nil {
			return result{}, fmt.Errorf("set-up compile: %w", err)
		}
		compiles = append(compiles, vals)
		clk.sample(1)
	}
	if err := warmUp(in); err != nil {
		return result{}, err
	}
	twin := 2
	if in.workers > 1 {
		twin = 1
	}
	var native, other []hostOp
	var traced []float64
	var perOp []map[string]float64
	attempted, failed := 0, 0
	gc0, used0, cyc0 := gcClock()
	check := func(o outcome, err error) {
		attempted++
		if err == nil {
			err = in.verify(o)
		}
		if err != nil {
			failed++
			fmt.Fprintf(report, "op %d failed: %v\n", attempted-1, err)
		}
	}
	for deadline := time.Now().Add(window); len(traced) <= tailMinBeyond || time.Now().Before(deadline); {
		h, o, err := timeUntraced(in, in.workers)
		check(o, err)
		native = append(native, h)

		tr := &opTrace{rec: rec, vals: map[string]float64{}}
		rec.op = len(traced)
		tr.opSpan = rec.begin("op", 0)
		o, err = in.traced(tr)
		traced = append(traced, rec.end(tr.opSpan).Seconds())
		if err == nil && tr.after != nil {
			rec.op = -2
			err = tr.after()
		}
		check(o, err)
		perOp = append(perOp, tr.vals)

		h, o, err = timeUntraced(in, twin)
		check(o, err)
		other = append(other, h)
		clk.sample(calPerOp)
	}
	gc1, used1, cyc1 := gcClock()

	// Per-op self time of every layer under the op spans.
	byOp := make([][]span, len(traced))
	for _, s := range rec.spans {
		if s.op >= 0 {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	selfs := make([]map[string]float64, len(traced))
	layers := map[string]bool{}
	for k, spans := range byOp {
		selfs[k] = map[string]float64{}
		for name, d := range selfTimes(spans) {
			selfs[k][name] = d.Seconds()
			layers[name] = true
		}
	}

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{medianOf(perOp, lm.name), lm.unit}
	}
	for _, name := range []string{"minic.parse_s", "ir.optimize_s", "bytecode.compile_s", "compiler.compile_s"} {
		m[name] = metric{medianOf(compiles, name), "s"}
	}
	m["gpurt.cpu_per_wall"] = metric{ratio(sumOf(perOp, "gpurt.cpu_s"), sumOf(perOp, "gpurt.task_s")), "s/s"}
	cpuOf := func(h hostOp) float64 { return h.cpu }
	cpuN, wallN := column(native, cpuOf), column(native, func(h hostOp) float64 { return h.wall })
	cpuW1, cpuW2 := cpuN, column(other, cpuOf)
	if in.workers > 1 {
		cpuW1, cpuW2 = cpuW2, cpuW1
	}
	m["pool.cpu_per_wall"] = metric{ratio(sum(cpuN), sum(wallN)), "s/s"}
	m["pool.extra_cpu_s"] = metric{median(cpuW2) - median(cpuW1), "s"}
	m["gc.cpu_frac"] = metric{ratio(gc1-gc0, used1-used0), "ratio"}
	m["gc.cycles"] = metric{(cyc1 - cyc0) / float64(attempted), "count"}
	m["unattributed_s"] = metric{medianOf(selfs, "op"), "s"}
	m["trace.overhead_s"] = metric{median(traced) - median(wallN), "s"}

	opP50 := median(traced)
	fmt.Fprintf(report, "traced ops %d, untraced ops %d (failed %d of %d)\n", len(traced), 2*len(native), failed, attempted)
	fmt.Fprintf(report, "per-op self time by layer, raw host seconds (median over traced ops; traced op p50 %.6f s):\n", opP50)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return medianOf(selfs, names[i]) > medianOf(selfs, names[j]) })
	for _, n := range names {
		label := n
		if n == "op" {
			label = "unattributed"
		}
		v := medianOf(selfs, n)
		fmt.Fprintf(report, "  %-22s %12.6f s %6.1f%%\n", label, v, 100*v/opP50)
	}
	clk.report(report)
	normalize(m, clk.scale())
	writeMetrics(report, m)
	if err := writeTraceFile(tracePath, rec.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(report, "trace: %s (%d spans)\n", tracePath, len(rec.spans))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOf is the median of one key over per-op (or per-sample) value
// maps; a map without the key counts as 0.
func medianOf(runs []map[string]float64, key string) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r[key]
	}
	return median(xs)
}

func sumOf(runs []map[string]float64, key string) float64 {
	t := 0.0
	for _, r := range runs {
		t += r[key]
	}
	return t
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
