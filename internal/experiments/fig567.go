package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpurt"
	"repro/internal/workload"
)

// Fig5Row is one benchmark's single-task GPU speedup over one CPU core,
// with the translated baseline and with all compiler optimizations
// (Figure 5). Tasks are data-local, as in the paper.
type Fig5Row struct {
	Code        string
	Nature      string
	BaseSpeedup float64
	OptSpeedup  float64
}

// Fig5 measures single-task speedups for all benchmarks on Cluster1
// hardware, sorted by increasing optimized speedup as in the paper.
func Fig5(cfg Config) ([]Fig5Row, error) {
	cfg.fillDefaults()
	setup := cluster.Cluster1()
	var rows []Fig5Row
	for _, b := range workload.All() {
		base, err := sampleBenchmark(b, setup, 1, gpurt.Baseline(), cfg)
		if err != nil {
			return nil, err
		}
		opt, err := sampleBenchmark(b, setup, 1, gpurt.AllOptimizations(), cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Code: b.Code, Nature: b.Nature,
			BaseSpeedup: base.Speedup(), OptSpeedup: opt.Speedup(),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].OptSpeedup < rows[j].OptSpeedup })
	return rows, nil
}

// FormatFig5 renders Figure 5.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5: Speedup of a single GPU task over a CPU task (sorted ascending)")
	fmt.Fprintf(&b, "%-6s %-8s %14s %14s %14s\n", "Bench", "Nature", "base-translat", "+optimizations", "opt-gain")
	for _, r := range rows {
		gain := 0.0
		if r.BaseSpeedup > 0 {
			gain = r.OptSpeedup / r.BaseSpeedup
		}
		fmt.Fprintf(&b, "%-6s %-8s %14.2f %14.2f %14.2f\n", r.Code, r.Nature, r.BaseSpeedup, r.OptSpeedup, gain)
	}
	return b.String()
}

// Fig6Row is one benchmark's GPU task execution-time breakdown as stage
// fractions (Figure 6).
type Fig6Row struct {
	Code      string
	Fractions map[string]float64 // stage name -> fraction of task time
	Total     float64
}

// Fig6Stages lists the stage names in the paper's stacking order.
var Fig6Stages = []string{
	"input read", "input copy", "record count", "map",
	"aggregate", "sort", "combine", "output write",
}

// Fig6 measures the per-stage breakdown of one optimized GPU task per
// benchmark.
func Fig6(cfg Config) ([]Fig6Row, error) {
	cfg.fillDefaults()
	setup := cluster.Cluster1()
	var rows []Fig6Row
	for _, b := range workload.All() {
		sample, err := sampleBenchmark(b, setup, 1, gpurt.AllOptimizations(), cfg)
		if err != nil {
			return nil, err
		}
		row := Fig6Row{Code: b.Code, Fractions: map[string]float64{}}
		for _, st := range sample.GPUTimes {
			for _, stage := range st.Stages() {
				row.Fractions[stage.Name] += stage.Time
			}
			row.Total += st.Total()
		}
		//detlint:ignore map-iteration: each fraction is divided in place by the same total, which visiting order cannot change
		for name := range row.Fractions {
			row.Fractions[name] /= row.Total
		}
		row.Total /= float64(len(sample.GPUTimes))
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig6 renders Figure 6 as stage percentage columns.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: Execution time breakdown of a GPU task (% of task time)")
	fmt.Fprintf(&b, "%-6s", "Bench")
	for _, s := range Fig6Stages {
		fmt.Fprintf(&b, " %12s", s)
	}
	fmt.Fprintf(&b, " %10s\n", "total(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s", r.Code)
		for _, s := range Fig6Stages {
			fmt.Fprintf(&b, " %11.1f%%", 100*r.Fractions[s])
		}
		fmt.Fprintf(&b, " %10.5f\n", r.Total)
	}
	return b.String()
}

// Fig7Row is one benchmark's kernel-level speedup from a single
// optimization (Figures 7a-7e).
type Fig7Row struct {
	Code    string
	Speedup float64
}

// fig7Stage measures one stage's time with a full optimization set versus
// the same set with one optimization disabled, for the given benchmarks.
func fig7Stage(codes []string, stage func(gpurt.StageTimes) float64,
	disable func(*gpurt.Options), cfg Config) ([]Fig7Row, error) {

	cfg.fillDefaults()
	setup := cluster.Cluster1()
	var rows []Fig7Row
	for _, code := range codes {
		b := workload.ByCode(code)
		if b == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", code)
		}
		on, err := sampleBenchmark(b, setup, 1, gpurt.AllOptimizations(), cfg)
		if err != nil {
			return nil, err
		}
		offOpts := gpurt.AllOptimizations()
		disable(&offOpts)
		off, err := sampleBenchmark(b, setup, 1, offOpts, cfg)
		if err != nil {
			return nil, err
		}
		var tOn, tOff float64
		for i := range on.GPUTimes {
			tOn += stage(on.GPUTimes[i])
			tOff += stage(off.GPUTimes[i])
		}
		speedup := 1.0
		if tOn > 0 {
			speedup = tOff / tOn
		}
		rows = append(rows, Fig7Row{Code: code, Speedup: speedup})
	}
	return rows, nil
}

// Fig7Texture measures the texture-memory effect on map kernels
// (Figure 7a; paper: ~2x on KM and CL).
func Fig7Texture(cfg Config) ([]Fig7Row, error) {
	return fig7Stage([]string{"KM", "CL"},
		func(t gpurt.StageTimes) float64 { return t.Map },
		func(o *gpurt.Options) { o.UseTexture = false }, cfg)
}

// Fig7VectorCombine measures vectorized read/write on combine kernels
// (Figure 7b; paper: up to 2.7x).
func Fig7VectorCombine(cfg Config) ([]Fig7Row, error) {
	return fig7Stage([]string{"GR", "HS", "WC", "HR", "LR"},
		func(t gpurt.StageTimes) float64 { return t.Combine },
		func(o *gpurt.Options) { o.VectorCombine = false }, cfg)
}

// Fig7VectorMap measures vectorized read/write on map kernels
// (Figure 7c; paper: up to 1.7x).
func Fig7VectorMap(cfg Config) ([]Fig7Row, error) {
	return fig7Stage([]string{"GR", "WC", "KM"},
		func(t gpurt.StageTimes) float64 { return t.Map },
		func(o *gpurt.Options) { o.VectorMap = false }, cfg)
}

// Fig7RecordStealing measures record stealing on map kernels
// (Figure 7d; paper: up to 1.36x, on skewed-record benchmarks). The split
// is enlarged so each thread handles several records — stealing is a
// no-op when every record gets its own thread.
func Fig7RecordStealing(cfg Config) ([]Fig7Row, error) {
	cfg.fillDefaults()
	cfg.SplitBytes *= 16
	return fig7Stage([]string{"HS", "KM", "CL"},
		func(t gpurt.StageTimes) float64 { return t.Map },
		func(o *gpurt.Options) { o.RecordStealing = false }, cfg)
}

// Fig7Aggregation measures KV-pair aggregation before sort
// (Figure 7e; paper: up to 7.6x on the sort kernel).
func Fig7Aggregation(cfg Config) ([]Fig7Row, error) {
	return fig7Stage([]string{"GR", "HS", "WC", "HR", "LR"},
		func(t gpurt.StageTimes) float64 { return t.Sort + t.Aggregate },
		func(o *gpurt.Options) { o.Aggregation = false }, cfg)
}

// FormatFig7 renders one Figure-7 panel.
func FormatFig7(title string, rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s %6.2fx\n", r.Code, r.Speedup)
	}
	return b.String()
}
