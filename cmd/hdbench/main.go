// Command hdbench regenerates the paper's evaluation tables and figures
// (Table 2, Table 3, Figures 3-7) from the simulated system, and doubles
// as the performance-tracking harness: it measures the benchmark suite
// into a schema-versioned baseline file and gates regressions against it.
//
// Usage:
//
//	hdbench -exp all
//	hdbench -exp fig4a -split-kb 32 -variants 3 -task-scale 1
//	hdbench -exp fig6 -hdprof              (engine-phase wall-clock table)
//	hdbench -baseline                      (write BENCH_baseline.json)
//	hdbench -check                         (compare, exit 1 on regression)
//	hdbench -check -short -threshold 1.0   (cheap CI gate)
//	hdbench -opt-report                    (per-pass SSA optimizer stats)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/perf/benchsuite"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2 table3 fig3 fig4a fig4b fig5 fig6 fig7a fig7b fig7c fig7d fig7e ablation faultsweep all")
	faultSpec := flag.String("faults", "", "extra fault plan for the faultsweep custom row (see faults.Parse)")
	splitKB := flag.Int("split-kb", 16, "scaled fileSplit size in KB for task sampling")
	variants := flag.Int("variants", 2, "distinct splits sampled per benchmark and device")
	taskScale := flag.Float64("task-scale", 1.0, "multiplier on the paper's Table-2 task counts")
	seed := flag.Uint64("seed", 0, "input seed (0 = default)")
	dumpBC := flag.String("dump-bytecode", "", "print the register-bytecode disassembly of a benchmark's stages (e.g. WC) and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the simulated jobs to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus-style metrics dump to this file")
	workers := flag.Int("workers", runtime.NumCPU(), "host worker-pool size for experiment sweeps; 1 = serial, results are byte-identical for every value")

	baseline := flag.Bool("baseline", false, "measure the benchmark suite and write -baseline-file")
	checkMode := flag.Bool("check", false, "measure the suite and compare against -baseline-file; exit 1 on regression")
	baselineFile := flag.String("baseline-file", "BENCH_baseline.json", "baseline file for -baseline / -check")
	repeat := flag.Int("repeat", 3, "samples per benchmark in -baseline / -check mode")
	short := flag.Bool("short", false, "restrict -baseline / -check to the cheap Short subset")
	filter := flag.String("filter", "", "substring filter on benchmark names in -baseline / -check mode")
	threshold := flag.Float64("threshold", 0, "ns/op regression allowance as a fraction, before noise bands (0 = default 0.25)")
	allowEnvMismatch := flag.Bool("allow-env-mismatch", false, "compare across differing Go version / CPU count with a warning instead of an error")
	optReport := flag.Bool("opt-report", false, "print per-pass SSA optimizer statistics for the benchmark programs and exit")

	hdprof := flag.Bool("hdprof", false, "time the experiment run's engine phases in wall-clock time and print the phase table")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile to this file")
	flag.Parse()

	stopProfiles, err := startPprof(*cpuProfile, *mutexProfile)
	check(err)

	if *dumpBC != "" {
		check(dumpBytecode(os.Stdout, *dumpBC))
		check(stopProfiles())
		return
	}

	if *optReport {
		check(runOptReport(os.Stdout))
		check(stopProfiles())
		return
	}

	if *baseline || *checkMode {
		code := runBaseline(baselineOpts{
			write:            *baseline,
			compare:          *checkMode,
			file:             *baselineFile,
			repeat:           *repeat,
			short:            *short,
			filter:           *filter,
			threshold:        *threshold,
			allowEnvMismatch: *allowEnvMismatch,
		})
		check(stopProfiles())
		check(writeHeapProfile(*memProfile))
		os.Exit(code)
	}

	var rec *obs.Recorder
	if *tracePath != "" || *metricsPath != "" {
		rec = obs.NewRecorder()
	}
	var prof *perf.Profiler
	if *hdprof {
		prof = perf.New()
	}
	cfg := experiments.Config{
		SplitBytes: *splitKB << 10,
		Variants:   *variants,
		TaskScale:  *taskScale,
		Seed:       *seed,
		Obs:        rec,
		Prof:       prof,
		Workers:    *workers,
	}

	wants := strings.Split(strings.ToLower(*exp), ",")
	selected := func(name string) bool {
		for _, w := range wants {
			if w == name || w == "all" {
				return true
			}
		}
		return false
	}
	ran := 0

	if selected("table2") {
		fmt.Print(experiments.FormatTable2(experiments.Table2()))
		fmt.Println()
		ran++
	}
	if selected("table3") {
		fmt.Print(experiments.FormatTable3(experiments.Table3()))
		fmt.Println()
		ran++
	}
	if selected("fig3") {
		r, err := experiments.Fig3(cfg)
		check(err)
		fmt.Print(experiments.FormatFig3(r))
		fmt.Println()
		ran++
	}
	if selected("fig5") {
		rows, err := experiments.Fig5(cfg)
		check(err)
		fmt.Print(experiments.FormatFig5(rows))
		fmt.Println()
		ran++
	}
	if selected("fig6") {
		rows, err := experiments.Fig6(cfg)
		check(err)
		fmt.Print(experiments.FormatFig6(rows))
		fmt.Println()
		ran++
	}
	if selected("fig4a") {
		rows, err := experiments.Fig4a(cfg)
		check(err)
		fmt.Print(experiments.FormatFig4("Figure 4a: HeteroDoop on Cluster1 (CPU + 1 GPU per node)",
			rows, []string{"1GPU+gpufirst", "1GPU+tail"}))
		fmt.Println()
		ran++
	}
	if selected("fig4b") {
		rows, err := experiments.Fig4b(cfg)
		check(err)
		fmt.Print(experiments.FormatFig4("Figure 4b: HeteroDoop on Cluster2 (multi-GPU scaling)",
			rows, []string{"1GPU+gpufirst", "1GPU+tail", "2GPU+gpufirst", "2GPU+tail", "3GPU+gpufirst", "3GPU+tail"}))
		fmt.Println()
		ran++
	}
	panels := []struct {
		name  string
		title string
		fn    func(experiments.Config) ([]experiments.Fig7Row, error)
	}{
		{"fig7a", "Figure 7a: Effect of texture memory on map kernels", experiments.Fig7Texture},
		{"fig7b", "Figure 7b: Effect of vectorized read/write on combine kernels", experiments.Fig7VectorCombine},
		{"fig7c", "Figure 7c: Effect of vectorized read/write on map kernels", experiments.Fig7VectorMap},
		{"fig7d", "Figure 7d: Effect of record stealing on map kernels", experiments.Fig7RecordStealing},
		{"fig7e", "Figure 7e: Effect of KV pair aggregation on sort kernels", experiments.Fig7Aggregation},
	}
	for _, p := range panels {
		if selected(p.name) || selected("fig7") {
			rows, err := p.fn(cfg)
			check(err)
			fmt.Print(experiments.FormatFig7(p.title, rows))
			fmt.Println()
			ran++
		}
	}
	if selected("faultsweep") || selected("faults") {
		var plan *faults.Plan
		if *faultSpec != "" {
			var err error
			plan, err = faults.Parse(*faultSpec)
			check(err)
		}
		rows, err := experiments.FaultSweep(cfg, plan)
		check(err)
		fmt.Print(experiments.FormatFaultSweep(rows))
		fmt.Println()
		ran++
	}
	if selected("ablation") || selected("ablations") {
		r, err := experiments.Ablations(cfg)
		check(err)
		fmt.Print(experiments.FormatAblations(r))
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "hdbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if prof != nil {
		snap := prof.Snapshot()
		fmt.Println()
		snap.WriteTable(os.Stdout)
		if rec != nil {
			rec.Metrics().RecordCostProfile(snap)
		}
	}
	check(writeObs(rec, *tracePath, *metricsPath))
	check(stopProfiles())
	check(writeHeapProfile(*memProfile))
}

// baselineOpts parameterizes one -baseline / -check invocation.
type baselineOpts struct {
	write, compare   bool
	file             string
	repeat           int
	short            bool
	filter           string
	threshold        float64
	allowEnvMismatch bool
}

// runBaseline measures the suite once, optionally compares against the
// stored baseline, and optionally re-writes it. With both -baseline and
// -check the comparison gates the write: a regressed run leaves the old
// baseline in place. Returns the process exit code.
func runBaseline(o baselineOpts) int {
	benches := benchsuite.Select(o.short, o.filter)
	if len(benches) == 0 {
		fmt.Fprintf(os.Stderr, "hdbench: no benchmarks match -short=%v -filter=%q\n", o.short, o.filter)
		return 2
	}
	fmt.Fprintf(os.Stderr, "hdbench: measuring %d benchmarks x %d samples\n", len(benches), o.repeat)
	cur := benchsuite.Measure(benches, o.repeat, o.short, nil, os.Stderr)

	if o.compare {
		f, err := os.Open(o.file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: -check: %v (run -baseline first)\n", err)
			return 1
		}
		base, err := perf.DecodeBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: -check: %s: %v\n", o.file, err)
			return 1
		}
		th := perf.DefaultThresholds()
		if o.threshold > 0 {
			th.TimeFrac = o.threshold
		}
		th.AllowEnvMismatch = o.allowEnvMismatch
		rep, err := perf.Compare(base, cur, th)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: -check: %v\n", err)
			return 1
		}
		rep.Write(os.Stdout)
		if !rep.OK() {
			return 1
		}
	}
	if o.write {
		f, err := os.Create(o.file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: -baseline: %v\n", err)
			return 1
		}
		if err := cur.Encode(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "hdbench: -baseline: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: -baseline: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s (%d benchmarks, %d samples each)\n", o.file, len(cur.Benchmarks), cur.Repeat)
	}
	return 0
}

// startPprof begins the requested Go runtime profiles and returns a stop
// function that finishes them.
func startPprof(cpuPath, mutexPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mutexPath != "" {
			f, err := os.Create(mutexPath)
			if err != nil {
				return err
			}
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// writeHeapProfile dumps the heap profile after a final GC, the standard
// -memprofile semantics.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeObs dumps the recorder's trace and metrics to the requested files.
func writeObs(rec *obs.Recorder, tracePath, metricsPath string) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.Tracer().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := rec.Metrics().WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdbench:", err)
		os.Exit(1)
	}
}
