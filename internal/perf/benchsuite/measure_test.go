package benchsuite

import (
	"strings"
	"testing"

	"repro/internal/perf"
)

// fakeSuite builds a suite of no-op benchmarks with the given names; the
// stub runner supplies all measurements, the bodies never run.
func fakeSuite(names ...string) []Bench {
	var bs []Bench
	for _, n := range names {
		bs = append(bs, Bench{Name: n, Fn: func(b *testing.B) {}})
	}
	return bs
}

// seqRunner returns samples from a queue, in call order.
func seqRunner(t *testing.T, samples []perf.Sample) Runner {
	i := 0
	return func(fn func(b *testing.B)) perf.Sample {
		t.Helper()
		if i >= len(samples) {
			t.Fatalf("seqRunner: out of samples at call %d", i)
		}
		s := samples[i]
		i++
		return s
	}
}

func sample(ns float64) perf.Sample { return perf.Sample{N: 1, NsPerOp: ns, AllocsPerOp: 100} }

// TestMeasureBuildsBaseline pins the shape of the assembled baseline:
// schema version, environment stamp, repeat count, per-benchmark samples.
func TestMeasureBuildsBaseline(t *testing.T) {
	suite := fakeSuite("BenchmarkA", "BenchmarkB")
	r := seqRunner(t, []perf.Sample{sample(100e3), sample(110e3), sample(200e3), sample(190e3)})
	base := Measure(suite, 2, true, r, nil)
	if base.Schema != perf.BaselineSchema {
		t.Fatalf("schema = %d", base.Schema)
	}
	if base.Env != perf.CurrentEnv() {
		t.Fatalf("env = %+v", base.Env)
	}
	if !base.Short || base.Repeat != 2 {
		t.Fatalf("short/repeat = %v/%d", base.Short, base.Repeat)
	}
	a := base.Benchmarks["BenchmarkA"]
	if got := a.BestNs(); got != 100e3 {
		t.Fatalf("BenchmarkA best = %v", got)
	}
	if got := base.Benchmarks["BenchmarkB"].BestNs(); got != 190e3 {
		t.Fatalf("BenchmarkB best = %v", got)
	}
}

// TestSyntheticSlowdownFailsCheck is the end-to-end regression-gate drill:
// a baseline measured at 1ms/op must make a 2x-slower re-measurement fail
// Compare — the same code path `hdbench -check` exits non-zero on.
func TestSyntheticSlowdownFailsCheck(t *testing.T) {
	suite := fakeSuite("BenchmarkHot")
	base := Measure(suite, 3, false, seqRunner(t, []perf.Sample{
		sample(1.00e6), sample(1.02e6), sample(1.01e6),
	}), nil)
	slow := Measure(suite, 3, false, seqRunner(t, []perf.Sample{
		sample(2.00e6), sample(2.04e6), sample(2.02e6),
	}), nil)

	rep, err := perf.Compare(base, slow, perf.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("2x synthetic slowdown passed the check")
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Bench != "BenchmarkHot" {
		t.Fatalf("regressions = %+v", regs)
	}
	var buf strings.Builder
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "FAIL") {
		t.Fatalf("report missing FAIL marker:\n%s", buf.String())
	}

	// The unchanged re-measurement passes the identical gate.
	same := Measure(suite, 3, false, seqRunner(t, []perf.Sample{
		sample(1.01e6), sample(0.99e6), sample(1.03e6),
	}), nil)
	rep, err = perf.Compare(base, same, perf.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("steady re-measurement failed: %+v", rep.Regressions())
	}
}

// TestGoBenchRunnerCapturesMetrics pins that the real testing.Benchmark
// adapter surfaces ns/op, allocs, and b.ReportMetric custom metrics.
func TestGoBenchRunnerCapturesMetrics(t *testing.T) {
	s := GoBenchRunner(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = make([]byte, 64)
		}
		b.ReportMetric(42, "answer")
	})
	if s.N < 1 {
		t.Fatalf("N = %d", s.N)
	}
	if s.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v", s.NsPerOp)
	}
	if s.Metrics["answer"] != 42 {
		t.Fatalf("metrics = %v", s.Metrics)
	}
}

// TestSelectShortAndFilter pins the CI subset and the name filter.
func TestSelectShortAndFilter(t *testing.T) {
	short := Select(true, "")
	if len(short) == 0 || len(short) >= len(All()) {
		t.Fatalf("short subset = %d of %d", len(short), len(All()))
	}
	runsVM := false
	for _, b := range short {
		if !b.Short {
			t.Fatalf("%s in short subset without Short flag", b.Name)
		}
		runsVM = runsVM || strings.HasSuffix(b.Name, "MapVM")
	}
	// The CI gate must time MiniC on the VM, not only the scheduler.
	if !runsVM {
		t.Fatal("short subset runs no VM map stage")
	}
	f := Select(false, "fig7")
	if len(f) != 5 {
		t.Fatalf("fig7 filter matched %d", len(f))
	}
	if len(Select(false, "no-such-bench")) != 0 {
		t.Fatal("bogus filter matched")
	}
}
