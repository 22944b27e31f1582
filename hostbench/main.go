// Command hostbench measures the host cost of the HeteroDoop simulator: the
// wall clock and heap allocations someone running a heterodoop job or an
// hdbench sweep waits for. Virtual (simulated) time is deterministic, so it
// serves only as a correctness check.
//
// One invocation runs one workload:
//
//	hostbench --workload km-8n --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run and writes the run's spans
// as a Chrome trace. The last line of standard output is one JSON object;
// the lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+workloadNames())
	seed := fl.Uint64("seed", defaultSeed, "input seed")
	seconds := fl.Float64("seconds", 20, "measured seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fl.String("out", ".bench_build", "directory for the traced run's Chrome trace")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "hostbench: want --workload %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	in, err := load(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = runTimed(in, window, stdout)
	} else {
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		res, err = runTraced(in, window, path, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// Noise controls; README.md gives the spreads that justify each.
const (
	setupSamples = 41 // set-up compiles per run; setup_s is their median
	warmupOps    = 2  // untimed, checked ops before the window opens
	calPerOp     = 2  // calibration kernels timed after each measured op
)

// setupTimes runs the workload's set-up compile setupSamples times, each
// from a freshly collected heap so every sample meets the same GC state,
// with a calibration sample after each.
func setupTimes(in *instance, clk *hostClock) ([]float64, error) {
	secs := make([]float64, setupSamples)
	for i := range secs {
		runtime.GC()
		t0 := time.Now()
		if err := in.compile(); err != nil {
			return nil, fmt.Errorf("set-up compile: %w", err)
		}
		secs[i] = time.Since(t0).Seconds()
		clk.sample(1)
	}
	return secs, nil
}

// warmUp collects garbage left by set-up and runs warm-up ops so lazy
// initialisation and heap growth finish before timing starts.
func warmUp(in *instance) error {
	calibrationKernel()
	runtime.GC()
	for i := 0; i < warmupOps; i++ {
		o, err := in.op()
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		if err := in.verify(o); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	runtime.GC()
	return nil
}

// opSample is one measured op.
type opSample struct {
	secs, cpu, allocs, allocBytes float64
	attempts                      int
}

// measureOp runs one untraced op, timed, with its heap allocations.
func measureOp(in *instance) (opSample, outcome, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	o, err := in.op()
	d, c := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	return opSample{
		secs:       d.Seconds(),
		cpu:        c.Seconds(),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		attempts:   o.attempts,
	}, o, err
}

// runTimed is the untraced run: closed-loop ops, one after another, for
// the whole window (and at least enough ops for a tail percentile).
func runTimed(in *instance, window time.Duration, report io.Writer) (result, error) {
	var clk hostClock
	setup, err := setupTimes(in, &clk)
	if err != nil {
		return result{}, err
	}
	if err := warmUp(in); err != nil {
		return result{}, err
	}
	var samples []opSample
	failed := 0
	for deadline := time.Now().Add(window); len(samples) <= tailMinBeyond || time.Now().Before(deadline); {
		s, o, err := measureOp(in)
		if err == nil {
			err = in.verify(o)
		}
		if err != nil {
			failed++
			fmt.Fprintf(report, "op %d failed: %v\n", len(samples), err)
		}
		samples = append(samples, s)
		clk.sample(calPerOp)
	}
	secs := column(samples, func(s opSample) float64 { return s.secs })
	inputMB := column(samples, func(opSample) float64 { return in.inputBytes / 1e6 })
	attempts := column(samples, func(s opSample) float64 { return float64(s.attempts) })
	tailV, tailPct, _ := tail(secs)
	m := map[string]metric{
		"setup_s":          {median(setup), "s"},
		"job_p50_s":        {median(secs), "s"},
		"job_tail_s":       {tailV, "s"},
		"input_mb_per_s":   {throughput(inputMB, secs), "MB/s"},
		"sim_tasks_per_s":  {throughput(attempts, secs), "1/s"},
		"allocs_per_job":   {median(column(samples, func(s opSample) float64 { return s.allocs })), "count"},
		"alloc_mb_per_job": {median(column(samples, func(s opSample) float64 { return s.allocBytes })) / 1e6, "MB"},
	}
	fmt.Fprintf(report, "ops %d (failed %d); job_tail_s is p%.1f with %d ops beyond it; setup_s is the median of %d compiles\n",
		len(samples), failed, tailPct, tailMinBeyond, len(setup))
	fmt.Fprintf(report, "op-time median by quarter of the window (drift check):")
	for q := 0; q < 4; q++ {
		fmt.Fprintf(report, " %.6f", median(secs[q*len(secs)/4:(q+1)*len(secs)/4]))
	}
	fmt.Fprintf(report, "\nraw medians: op %.6f s, process CPU per op %.6f s, set-up %.6f s\n",
		median(secs), median(column(samples, func(s opSample) float64 { return s.cpu })), median(setup))
	clk.report(report)
	normalize(m, clk.scale())
	writeMetrics(report, m)
	return result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: m}, nil
}

func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func writeMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
