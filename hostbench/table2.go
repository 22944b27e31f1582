package main

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/workload"
)

// table2Sample is one benchmark's functionally sampled task behaviour on
// Cluster1 (three 32 KB split variants, as the fig4 sweeps sample them).
// The values are fixed here so the workload runs no MiniC;
// TestTable2SamplesMatchSampling re-derives them from the simulator.
type table2Sample struct {
	cpuDur, gpuDur []float64
	outputBytes    int64
}

// table2SplitBytes is the sampled split size the durations stand for.
const table2SplitBytes = 32 << 10

// table2Job is one (benchmark, scheduler) job of the sweep.
type table2Job struct {
	name      string
	node      mr.NodeConfig
	sched     mr.SchedulerKind
	heartbeat float64
	newExec   func() *mr.SampledExecutor
}

// table2Jobs lays out the sweep: every Table-2 benchmark at its Cluster1
// task counts under cpu-only, gpu-first and tail scheduling, configured as
// experiments.Fig4a configures it.
func table2Jobs() ([]table2Job, error) {
	setup := cluster.Cluster1()
	var jobs []table2Job
	for _, b := range workload.All() {
		s, ok := table2Samples[b.Code]
		if !ok {
			return nil, fmt.Errorf("no recorded sample for %s", b.Code)
		}
		b, s := b, s
		pct := float64(b.PctMapCombine) / 100
		meanCPU, meanGPU := mean(s.cpuDur), mean(s.gpuDur)
		mapPhaseCPU := meanCPU * float64(b.MapTasksC1) / float64(setup.Node.MapSlots*setup.Slaves)
		reduceCompute := 0.0
		if pct < 1 && b.ReduceTasksC1 > 0 {
			reduceCompute = mapPhaseCPU * (1 - pct) / pct
		}
		newExec := func() *mr.SampledExecutor {
			return &mr.SampledExecutor{
				Splits: b.MapTasksC1, Reducers: b.ReduceTasksC1, Slaves: setup.Slaves,
				CPUDur: s.cpuDur, GPUDur: s.gpuDur,
				RemoteReadPenalty: float64(table2SplitBytes) / (setup.HDFS.NetworkGBs * 1e9),
				MapOutputBytes:    s.outputBytes,
				ReduceCompute:     reduceCompute,
				ShuffleGBs:        setup.HDFS.NetworkGBs,
				Jitter:            0.35,
			}
		}
		hb := meanGPU / 2
		if hb < 1e-5 {
			hb = 1e-5
		}
		for _, sched := range []mr.SchedulerKind{mr.CPUOnly, mr.GPUFirst, mr.TailSched} {
			node := setup.Node
			if sched == mr.CPUOnly {
				node = setup.CPUOnlyNode()
			}
			jobs = append(jobs, table2Job{
				name: fmt.Sprintf("%s-%dgpu-%s", b.Code, node.GPUs, sched),
				node: node, sched: sched, heartbeat: hb, newExec: newExec,
			})
		}
	}
	return jobs, nil
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// table2Sweep runs the 24 jobs on one recorder and writes the Chrome trace
// and Prometheus dump to memory, as `hdbench -trace -metrics` would.
type table2Sweep struct {
	jobs []table2Job
	seed uint64
}

func prepareTable2(seed uint64) (*instance, error) {
	jobs, err := table2Jobs()
	if err != nil {
		return nil, err
	}
	sw := &table2Sweep{jobs: jobs, seed: seed}
	in := &instance{
		inputBytes: sw.inputBytes(),
		compile:    compileTable2Programs,
		programs:   table2Programs(),
		untraced:   func(workers int) (outcome, error) { return sw.run(nil, workers) },
		workers:    1,
		traced:     func(tr *opTrace) (outcome, error) { return sw.run(tr, 1) },
		check:      sw.check,
	}
	return in, nil
}

// inputBytes is the input the sweep's map tasks stand for: Table-2 task
// counts times the sampled split size.
func (sw *table2Sweep) inputBytes() float64 {
	var n float64
	for _, j := range sw.jobs {
		n += float64(j.newExec().Splits) * table2SplitBytes
	}
	return n
}

// compileTable2Programs is one set-up sample: mr.CompileJob over all eight
// Table-2 programs, as the fig4 sweeps compile them.
func compileTable2Programs() error {
	for _, p := range table2Programs() {
		if _, err := mr.CompileJob(p); err != nil {
			return err
		}
	}
	return nil
}

func table2Programs() []mr.JobProgram {
	var progs []mr.JobProgram
	for _, b := range workload.All() {
		progs = append(progs, b.JobFor(1))
	}
	return progs
}

func (sw *table2Sweep) config(j table2Job, rec *obs.Recorder, workers int) mr.ClusterConfig {
	return mr.ClusterConfig{
		Name: j.name, Slaves: cluster.Cluster1().Slaves, Node: j.node, Scheduler: j.sched,
		HeartbeatSec: j.heartbeat, Seed: sw.seed, Workers: workers, Obs: rec,
	}
}

// run is one op: the whole sweep plus the trace and metrics export,
// traced when tr is non-nil.
func (sw *table2Sweep) run(tr *opTrace, workers int) (outcome, error) {
	rec := obs.NewRecorder()
	var o outcome
	for _, j := range sw.jobs {
		var exec mr.Executor = j.newExec()
		var te *tracedExec
		var runSpan int
		if tr != nil {
			runSpan = tr.rec.begin("mr.RunJob", tr.opSpan)
			te = newTracedExec(exec, tr, runSpan, false)
			exec = te
		}
		stats, err := mr.RunJob(sw.config(j, rec, workers), exec)
		if tr != nil {
			te.finish(tr.rec.end(runSpan))
		}
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", j.name, err)
		}
		o.makespans = append(o.makespans, stats.Makespan)
		o.attempts += simAttempts(stats, j.newExec().Reducers)
		o.stats = append(o.stats, stats)
	}
	var export int
	if tr != nil {
		export = tr.rec.begin("obs.export", tr.opSpan)
	}
	var buf bytes.Buffer
	if err := rec.Tracer().WriteChromeTrace(&buf); err != nil {
		return outcome{}, err
	}
	traceBytes := buf.Len()
	if err := rec.Metrics().WriteProm(&buf); err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.add("obs.export_s", tr.rec.end(export).Seconds())
		tr.add("obs.trace_mb", float64(traceBytes)/1e6)
	}
	o.out = buf.Bytes()
	return o, nil
}

// check requires every map task of every job to have completed.
func (sw *table2Sweep) check(o outcome) error {
	for i, j := range sw.jobs {
		s := o.stats[i]
		if want := j.newExec().Splits; s.MapsOnCPU+s.MapsOnGPU != want {
			return fmt.Errorf("%s: %d of %d maps completed", j.name, s.MapsOnCPU+s.MapsOnGPU, want)
		}
	}
	return nil
}
