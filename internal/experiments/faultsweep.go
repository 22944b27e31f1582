package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/workload"
)

// FaultSweepRow is one fault plan's outcome versus the clean run: the
// headline fault-tolerance invariant is that OutputOK holds (byte-identical
// job output) for every completable plan.
type FaultSweepRow struct {
	Label    string
	Makespan float64
	// OutputOK reports byte-identical output versus the clean run (for the
	// skip-bad-records row: versus the clean run over the pruned input).
	OutputOK bool
	// Err is the structured failure for uncompletable plans.
	Err string
	// Recovery counters from JobStats.
	FailedAttempts   int
	LostAttempts     int
	NodesLost        int
	MapsReexecuted   int
	GPUFallbacks     int
	ReducesRestarted int
	Blacklists       int
	// Data-integrity counters from JobStats.
	FetchFailures     int
	CorruptPartitions int
	MapOutputsLost    int
	RecordsSkipped    int
}

// FaultSweep runs wordcount on a 4-slave cluster under a battery of fault
// plans — clean, probabilistic GPU/CPU failures, node crash with restart,
// permanent node crash after map commits, GPU retirement, heartbeat loss,
// a straggler, and the data-integrity battery (map-output corruption,
// transient and sustained fetch failures, background corruption and
// fetch-failure rates, corruption racing a crash, and bad-record skipping)
// — and checks each run's output byte-for-byte against the clean run. A
// non-nil custom plan is appended as an extra row.
func FaultSweep(cfg Config, custom *faults.Plan) ([]FaultSweepRow, error) {
	cfg.fillDefaults()
	setup := cluster.Cluster1().WithSlaves(4)
	// Tiny splits keep the functional wordcount runs fast; the virtual
	// timescale shrinks with them, so fault instants are derived from the
	// clean run's stats rather than hard-coded.
	setup.HDFS.BlockSize = 4 << 10
	bench := workload.Wordcount()
	job, err := core.CompileJob(core.JobSources{
		Name:     "wc-faults",
		Map:      bench.Job.MapSrc,
		Combine:  bench.Job.CombineSrc,
		Reduce:   bench.Job.ReduceSrc,
		Reducers: 3,
	})
	if err != nil {
		return nil, err
	}
	input := workload.TextCorpus(cfg.Seed, 48*(4<<10))
	pool, release := cfg.pool()
	defer release()
	run := func(in []byte, plan *faults.Plan, skip bool, rec *obs.Recorder) (*core.Result, error) {
		return core.Run(job, in, core.RunOptions{
			Setup:          &setup,
			Seed:           cfg.Seed,
			Faults:         plan,
			SkipBadRecords: skip,
			Obs:            rec,
			Pool:           pool,
		})
	}
	// The clean run goes first, alone: every plan below derives its fault
	// instants from the clean stats. Fork+merge recording keeps the bytes
	// identical across worker counts.
	clean, err := func() (*core.Result, error) {
		rec := cfg.Obs.Fork()
		res, err := run(input, nil, false, rec)
		cfg.Obs.Merge(rec)
		return res, err
	}()
	if err != nil {
		return nil, fmt.Errorf("experiments: clean fault-sweep run: %w", err)
	}
	cleanOut := clean.TextOutput()
	mapEnd := clean.Stats.MapPhaseEnd
	span := clean.Stats.Makespan
	rows := []FaultSweepRow{{
		Label:    "clean",
		Makespan: span,
		OutputOK: true,
	}}

	plans := []struct {
		label string
		plan  *faults.Plan
	}{
		{"gpu-rate-0.3", &faults.Plan{GPUFailureRate: 0.3}},
		{"cpu+gpu-rate", &faults.Plan{CPUFailureRate: 0.05, GPUFailureRate: 0.2}},
		{"crash+restart", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, Node: 1, At: 0.8 * mapEnd, RestartAfter: 0.2 * span},
		}}},
		{"crash-after-maps", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, Node: 2, At: 0.9 * mapEnd},
		}}},
		{"gpu-retire", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.GPURetire, Node: 0, At: 0.2 * mapEnd},
		}}},
		{"hb-loss", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.HeartbeatLoss, Node: 3, At: 0.3 * mapEnd, Duration: 0.5 * span},
		}}},
		{"straggler-4x", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Slowdown, Node: 1, At: 0, Factor: 4},
		}}},
		// Data-integrity battery: shuffle corruption and fetch failures.
		{"corrupt-1-part", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: 0},
		}}},
		{"corrupt-output", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 2, Attempt: 0, Part: -1},
		}}},
		{"corrupt-2-tasks", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 1, Attempt: 0, Part: 1},
			{Kind: faults.MapOutputCorrupt, Task: 3, Attempt: 0, Part: 2},
		}}},
		{"corrupt-rate-0.05", &faults.Plan{CorruptRate: 0.05, Seed: 5}},
		{"fetchfail-2x", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.FetchFail, Task: 1, Part: 1, Times: 2},
		}}},
		{"fetchfail-lost", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.FetchFail, Task: 0, Part: 0, Times: 9},
		}}},
		{"fetch-rate-0.05", &faults.Plan{FetchFailRate: 0.05, Seed: 6}},
		{"corrupt+crash", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: -1},
			{Kind: faults.NodeCrash, Node: 1, At: mapEnd + 0.5*(span-mapEnd), RestartAfter: 0.3 * span},
		}}},
	}
	if custom != nil {
		plans = append(plans, struct {
			label string
			plan  *faults.Plan
		}{"custom", custom})
	}
	// Every plan row is independent of the others: run them on the worker
	// pool, one task per row, merged back in plan order. A row's failure is
	// data (an Err row), not a sweep failure, so the run callbacks never
	// return an error.
	planRows, err := parallelRuns(pool, cfg, len(plans),
		func(i int, c Config) (FaultSweepRow, error) {
			p := plans[i]
			res, err := run(input, p.plan, false, c.Obs)
			if err != nil {
				return FaultSweepRow{Label: p.label, Err: err.Error()}, nil
			}
			return sweepRow(p.label, res, res.TextOutput() == cleanOut), nil
		})
	if err != nil {
		return nil, err
	}
	rows = append(rows, planRows...)

	// Bad-record skipping: poison two records of split 0 with skip mode on;
	// the run must reproduce the clean output of the input with those two
	// lines removed. The pruned-input reference and the skip run are
	// independent, so they share one parallel group.
	skipPlan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.InputCorrupt, Task: 0, Record: 1},
		{Kind: faults.InputCorrupt, Task: 0, Record: 4},
	}}
	pruned := dropRecords(input, 1, 4)
	type skipOut struct {
		res *core.Result
		err error
	}
	skipRuns, err := parallelRuns(pool, cfg, 2,
		func(i int, c Config) (skipOut, error) {
			if i == 0 {
				res, err := run(pruned, nil, false, c.Obs)
				return skipOut{res, err}, nil
			}
			res, err := run(input, skipPlan, true, c.Obs)
			return skipOut{res, err}, nil
		})
	if err != nil {
		return nil, err
	}
	prunedRef := skipRuns[0]
	if prunedRef.err != nil {
		return nil, fmt.Errorf("experiments: pruned-input reference run: %w", prunedRef.err)
	}
	if sk := skipRuns[1]; sk.err != nil {
		rows = append(rows, FaultSweepRow{Label: "skip-bad-records", Err: sk.err.Error()})
	} else {
		rows = append(rows, sweepRow("skip-bad-records", sk.res, sk.res.TextOutput() == prunedRef.res.TextOutput()))
	}
	return rows, nil
}

// sweepRow copies a completed run's recovery and integrity counters.
func sweepRow(label string, res *core.Result, outputOK bool) FaultSweepRow {
	s := res.Stats
	return FaultSweepRow{
		Label:             label,
		Makespan:          s.Makespan,
		OutputOK:          outputOK,
		FailedAttempts:    s.FailedAttempts,
		LostAttempts:      s.LostAttempts,
		NodesLost:         s.NodesLost,
		MapsReexecuted:    s.MapsReexecuted,
		GPUFallbacks:      s.GPUFallbacks,
		ReducesRestarted:  s.ReducesRestarted,
		Blacklists:        s.NodeBlacklists,
		FetchFailures:     s.FetchFailures,
		CorruptPartitions: s.CorruptPartitions,
		MapOutputsLost:    s.MapOutputsLost,
		RecordsSkipped:    s.RecordsSkipped,
	}
}

// dropRecords removes the newline-delimited records at the given indices
// (mirroring the engine's LineRecordReader skip semantics on split 0, which
// starts at byte 0).
func dropRecords(input []byte, drop ...int) []byte {
	dropSet := map[int]bool{}
	for _, d := range drop {
		dropSet[d] = true
	}
	var out []byte
	rec := 0
	for start := 0; start < len(input); rec++ {
		end := start
		for end < len(input) && input[end] != '\n' {
			end++
		}
		if end < len(input) {
			end++
		}
		if !dropSet[rec] {
			out = append(out, input[start:end]...)
		}
		start = end
	}
	return out
}

// FormatFaultSweep renders fault-sweep rows as a table.
func FormatFaultSweep(rows []FaultSweepRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fault sweep (wordcount, 4 slaves; output compared byte-for-byte to clean run)")
	fmt.Fprintf(&b, "%-18s %10s %6s %5s %5s %5s %6s %5s %5s %5s %5s %5s %5s %5s\n",
		"plan", "makespan", "output", "fail", "lost", "nodes", "reexec", "fback", "redo", "blist",
		"ffail", "crpt", "olost", "skip")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-18s FAILED: %s\n", r.Label, r.Err)
			continue
		}
		ok := "ok"
		if !r.OutputOK {
			ok = "DIFF"
		}
		fmt.Fprintf(&b, "%-18s %10.4f %6s %5d %5d %5d %6d %5d %5d %5d %5d %5d %5d %5d\n",
			r.Label, r.Makespan, ok, r.FailedAttempts, r.LostAttempts, r.NodesLost,
			r.MapsReexecuted, r.GPUFallbacks, r.ReducesRestarted, r.Blacklists,
			r.FetchFailures, r.CorruptPartitions, r.MapOutputsLost, r.RecordsSkipped)
	}
	return b.String()
}
