package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/mr"
	"repro/internal/workload"
)

// defaultSeed is the seed whose reference outputs are recorded in refs.go.
const defaultSeed = 1

// outcome is what one op produced, as the correctness gate sees it.
type outcome struct {
	out       []byte    // the op's output bytes (digested after timing)
	makespans []float64 // virtual seconds, one per job
	attempts  int       // simulated map and reduce attempts
	stats     []*mr.JobStats
}

// reference is what every op must reproduce.
type reference struct {
	digest    string
	makespans []float64
}

func (o outcome) reference() reference {
	sum := sha256.Sum256(o.out)
	return reference{digest: hex.EncodeToString(sum[:]), makespans: o.makespans}
}

// instance is one workload prepared for one seed.
type instance struct {
	// inputBytes is the input one op reads.
	inputBytes float64
	// compile is one sample of the workload's set-up compile, over
	// programs.
	compile  func() error
	programs []mr.JobProgram
	// untraced runs one op the way users run it, at a -workers count;
	// workers is the workload's own.
	untraced func(workers int) (outcome, error)
	workers  int
	// traced runs one op under the traced run's executor wrapper.
	traced func(tr *opTrace) (outcome, error)
	// check holds workload-specific invariants beyond the reference.
	check func(outcome) error
	ref   reference
}

// op runs one untraced op at the workload's own -workers count.
func (in *instance) op() (outcome, error) { return in.untraced(in.workers) }

// verify is the correctness gate applied to every op.
func (in *instance) verify(o outcome) error {
	got := o.reference()
	if got.digest != in.ref.digest {
		return fmt.Errorf("output digest %s, want %s", got.digest[:12], in.ref.digest[:12])
	}
	if len(got.makespans) != len(in.ref.makespans) {
		return fmt.Errorf("%d jobs, want %d", len(got.makespans), len(in.ref.makespans))
	}
	for i, m := range got.makespans {
		if m != in.ref.makespans[i] {
			return fmt.Errorf("job %d makespan %v, want %v", i, m, in.ref.makespans[i])
		}
	}
	return in.invariants(o)
}

// invariants applies the workload-specific checks, if any.
func (in *instance) invariants(o outcome) error {
	if in.check == nil {
		return nil
	}
	return in.check(o)
}

// workloadDef names a workload and how to prepare it for a seed.
type workloadDef struct {
	name    string
	prepare func(seed uint64) (*instance, error)
}

// workloads in report order; README.md gives why each was chosen and
// which layers it exercises.
var workloads = []workloadDef{
	{"km-8n", prepareKmeans},
	{"bs-c2", prepareBlackScholes},
	{"wc-faults-w2", prepareWordcountFaults},
	{"sched-table2", prepareTable2},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// functional is a job run for real, the way cmd/heterodoop runs one.
type functional struct {
	prog    mr.JobProgram
	setup   cluster.Setup
	sched   mr.SchedulerKind
	gpus    int
	workers int
	seed    uint64
	input   []byte
	plan    *faults.Plan
	job     *core.Job
	cj      *mr.CompiledJob
}

func (f *functional) sources() core.JobSources {
	return core.JobSources{Name: f.prog.Name, Map: f.prog.MapSrc, Combine: f.prog.CombineSrc,
		Reduce: f.prog.ReduceSrc, Reducers: f.prog.NumReducers}
}

// compileOnce is one set-up sample: core.CompileJob on the sources.
func (f *functional) compileOnce() error {
	_, err := core.CompileJob(f.sources())
	return err
}

// runCore is the untraced op: one core.Run job.
func (f *functional) runCore(workers int) (outcome, error) {
	res, err := core.Run(f.job, f.input, core.RunOptions{
		Setup: &f.setup, Scheduler: f.sched, GPUs: f.gpus, Faults: f.plan,
		Seed: f.seed, Workers: workers,
	})
	if err != nil {
		return outcome{}, err
	}
	return jobOutcome(res.Stats, f.prog.NumReducers), nil
}

func jobOutcome(s *mr.JobStats, reducers int) outcome {
	var out []byte
	for _, p := range s.Output {
		out = append(out, p.Text()...)
		out = append(out, '\n')
	}
	return outcome{out: out, makespans: []float64{s.Makespan}, attempts: simAttempts(s, reducers), stats: []*mr.JobStats{s}}
}

// simAttempts counts a job's simulated map and reduce attempts from its
// stats: placed maps plus failed, lost and re-executed map attempts, plus
// reduce tasks and restarted reduces.
func simAttempts(s *mr.JobStats, reducers int) int {
	return s.MapsOnCPU + s.MapsOnGPU + s.FailedAttempts + s.LostAttempts + s.MapsReexecuted +
		s.SpeculativeLaunched + reducers + s.ReducesRestarted
}

const inputPath = "/job/input"

// build assembles the executor and cluster config exactly as core.Run
// does, from mr.CompileJob, hdfs, gpu.NewDevice and
// mr.NewFunctionalExecutor, so the traced run can wrap the executor.
func (f *functional) build() (*mr.FunctionalExecutor, mr.ClusterConfig, error) {
	setup := f.setup
	if f.gpus > 0 {
		setup.Node.GPUs = f.gpus
	}
	if f.sched == mr.CPUOnly {
		setup.Node.GPUs = 0
	}
	fs, err := hdfs.New(setup.HDFS, f.seed+1)
	if err != nil {
		return nil, mr.ClusterConfig{}, err
	}
	if err := fs.Write(inputPath, f.input); err != nil {
		return nil, mr.ClusterConfig{}, err
	}
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		return nil, mr.ClusterConfig{}, err
	}
	exec, err := mr.NewFunctionalExecutor(f.cj, fs, inputPath, mr.HardwareModel{
		CPU: setup.CPU, Device: dev, Opts: gpurt.AllOptimizations(),
		DiskWriteGBs: setup.DiskWriteGBs, HDFSWriteGBs: setup.HDFSWriteGBs,
	})
	if err != nil {
		return nil, mr.ClusterConfig{}, err
	}
	return exec, mr.ClusterConfig{
		Name: f.cj.Program.Name, Slaves: setup.Slaves, Node: setup.Node, Scheduler: f.sched,
		HeartbeatSec: scaledHeartbeat(setup), Faults: f.plan, Seed: f.seed + 2, Workers: f.workers,
	}, nil
}

// scaledHeartbeat mirrors core.Run's heartbeat scaling (the transparency
// test pins the two paths to identical stats).
func scaledHeartbeat(setup cluster.Setup) float64 {
	hb := setup.HeartbeatSec * float64(setup.HDFS.BlockSize) / float64(256<<20) * 50
	if hb < 1e-5 {
		hb = 1e-5
	}
	return hb
}

// newFunctional compiles the job both ways (core.Job for the untraced
// path, mr.CompiledJob for the traced one).
func newFunctional(f *functional) (*functional, error) {
	var err error
	if f.job, err = core.CompileJob(f.sources()); err != nil {
		return nil, err
	}
	if f.cj, err = mr.CompileJob(f.prog); err != nil {
		return nil, err
	}
	return f, nil
}

// instance wires a prepared functional job into the benchmark.
func (f *functional) instance(check func(outcome) error) (*instance, error) {
	in := &instance{
		inputBytes: float64(len(f.input)),
		compile:    f.compileOnce,
		programs:   []mr.JobProgram{f.prog},
		untraced:   f.runCore,
		workers:    f.workers,
		traced:     f.runTraced,
		check:      check,
	}
	return in, nil
}

// load prepares workload w for seed and fixes the reference every op must
// reproduce: the one recorded in refs.go at the default seed, else the
// output of one untimed, untraced op.
func load(w workloadDef, seed uint64) (*instance, error) {
	in, err := w.prepare(seed)
	if err != nil {
		return nil, err
	}
	if seed == defaultSeed {
		ref, ok := recordedRefs[w.name]
		if !ok {
			return nil, fmt.Errorf("no recorded reference for %s", w.name)
		}
		in.ref = ref
		return in, nil
	}
	o, err := in.op()
	if err == nil {
		err = in.invariants(o)
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	in.ref = o.reference()
	return in, nil
}

// kmeansInputKB is heterodoop's default input size: 17 maps on 4 KB
// blocks, 16 of them on CPUs.
const kmeansInputKB = 64

func prepareKmeans(seed uint64) (*instance, error) {
	b := workload.Kmeans()
	setup := cluster.Cluster1().WithSlaves(8)
	setup.HDFS.BlockSize = 4 << 10
	f, err := newFunctional(&functional{
		prog: b.JobFor(1), setup: setup, sched: mr.TailSched, gpus: 1, workers: 1,
		seed: seed, input: b.Gen(seed, kmeansInputKB<<10),
	})
	if err != nil {
		return nil, err
	}
	return f.instance(nil)
}

// blackScholesInputKB is half a 64 KB Cluster2 block: one GPU map per job.
const blackScholesInputKB = 32

func prepareBlackScholes(seed uint64) (*instance, error) {
	b := workload.BlackScholes()
	f, err := newFunctional(&functional{
		prog: b.JobFor(2), setup: cluster.Cluster2(), sched: mr.TailSched, workers: 1,
		seed: seed, input: b.Gen(seed, blackScholesInputKB<<10),
	})
	if err != nil {
		return nil, err
	}
	return f.instance(func(o outcome) error {
		if s := o.stats[0]; s.MapsOnCPU != 0 {
			return fmt.Errorf("%d maps ran on CPUs, want all on GPUs", s.MapsOnCPU)
		}
		return nil
	})
}

// wordcountInputKB matches the fault sweep's 4 KB-block, 4-slave shape at
// a size where one job re-executes maps dozens of times.
const wordcountInputKB = 192

func prepareWordcountFaults(seed uint64) (*instance, error) {
	b := workload.Wordcount()
	setup := cluster.Cluster1().WithSlaves(4)
	setup.HDFS.BlockSize = 4 << 10
	prog := b.Job
	prog.Name = "wc-faults"
	prog.NumReducers = 3
	// The fault sweep's core.Run leaves Scheduler at its zero value, the
	// CPU-only scheduler; so does this workload.
	f, err := newFunctional(&functional{
		prog: prog, setup: setup, sched: mr.CPUOnly, workers: 2,
		seed: seed, input: workload.TextCorpus(seed, wordcountInputKB<<10),
	})
	if err != nil {
		return nil, err
	}
	// The clean run fixes the crash instants (as the fault sweep derives
	// them) and the output every faulted op must reproduce.
	clean, err := f.runCore(1)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	cleanRef := clean.reference()
	mapEnd, span := clean.stats[0].MapPhaseEnd, clean.stats[0].Makespan
	// The plan's own draw seed is fixed, so every input seed meets the same
	// corruption and fetch-failure pattern and about the same recovery work.
	f.plan, err = faults.Parse(fmt.Sprintf("seed=5; corruptrate=0.05; fetchrate=0.1; crash(node=1,at=%g,restart=%g)",
		0.8*mapEnd, 0.2*span))
	if err != nil {
		return nil, err
	}
	return f.instance(func(o outcome) error {
		if o.reference().digest != cleanRef.digest {
			return errors.New("faulted output differs from the clean run's")
		}
		s := o.stats[0]
		if s.MapsReexecuted == 0 || s.FetchFailures == 0 || s.CorruptPartitions == 0 || s.NodesLost == 0 {
			return fmt.Errorf("recovery did not run: %d re-executions, %d fetch failures, %d corrupt partitions, %d nodes lost",
				s.MapsReexecuted, s.FetchFailures, s.CorruptPartitions, s.NodesLost)
		}
		return nil
	})
}
