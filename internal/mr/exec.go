package mr

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/ir"
	"repro/internal/kv"
	"repro/internal/minic"
	"repro/internal/perf"
	"repro/internal/seqfile"
	"repro/internal/sim"
	"repro/internal/streaming"
)

// JobProgram bundles a benchmark's MiniC sources.
type JobProgram struct {
	Name string
	// MapSrc must carry a mapper pragma. CombineSrc (optional) carries a
	// combiner pragma. ReduceSrc (optional) is a plain streaming filter.
	MapSrc     string
	CombineSrc string
	ReduceSrc  string
	// NumReducers is the job's reduce-task count (0 = map-only).
	NumReducers int
	// DisableOpt turns off the SSA optimizer for every stage (-O0);
	// the zero value optimizes.
	DisableOpt bool
}

// CompiledJob is a JobProgram after translation.
type CompiledJob struct {
	Program  JobProgram
	MapC     *compiler.Compiled
	CombineC *compiler.Compiled // nil if no combiner
	MapF     *streaming.Filter  // CPU-side executables
	CombineF *streaming.Filter
	ReduceF  *streaming.Filter
	Schema   kv.Schema
}

// CompileJob runs the HeteroDoop translator over a job's sources, yielding
// both CPU (Hadoop Streaming) and GPU executables — the single-source
// property of the paper.
func CompileJob(p JobProgram) (*CompiledJob, error) { return CompileJobProf(p, nil) }

// CompileJobProf is CompileJob with the translation phases charged to an
// optional wall-clock profiler.
func CompileJobProf(p JobProgram, prof *perf.Profiler) (*CompiledJob, error) {
	copts := compiler.Options{Prof: prof, DisableOpt: p.DisableOpt}
	mapC, err := compiler.CompileOpts(p.MapSrc, copts)
	if err != nil {
		return nil, fmt.Errorf("mr: job %s mapper: %w", p.Name, err)
	}
	cj := &CompiledJob{
		Program: p,
		MapC:    mapC,
		MapF:    &streaming.Filter{Name: p.Name + "-map", Prog: mapC.HostProg, Code: mapC.VM},
		Schema:  mapC.Schema,
	}
	if p.CombineSrc != "" {
		combC, err := compiler.CompileOpts(p.CombineSrc, copts)
		if err != nil {
			return nil, fmt.Errorf("mr: job %s combiner: %w", p.Name, err)
		}
		cj.CombineC = combC
		cj.CombineF = &streaming.Filter{Name: p.Name + "-combine", Prog: combC.HostProg, Code: combC.VM}
	}
	if p.ReduceSrc != "" {
		endR := prof.Phase(perf.PhaseHostCompile)
		prog, err := minic.ParseAndCheck(p.ReduceSrc)
		endR()
		if err != nil {
			return nil, fmt.Errorf("mr: job %s reducer: %w", p.Name, err)
		}
		if !p.DisableOpt {
			endOpt := prof.Phase(perf.PhaseOptimize)
			ir.OptimizeProgram(prog)
			endOpt()
		}
		endBC := prof.Phase(perf.PhaseBytecodeCompile)
		code, err := bytecode.Compile(prog)
		endBC()
		if err != nil {
			return nil, fmt.Errorf("mr: job %s reducer: %w", p.Name, err)
		}
		cj.ReduceF = &streaming.Filter{Name: p.Name + "-reduce", Prog: prog, Code: code}
	}
	return cj, nil
}

// HardwareModel bundles the per-node device and CPU models plus the write
// bandwidths shared by both task paths.
type HardwareModel struct {
	CPU    streaming.CPUModel
	Device *gpu.Device
	Opts   gpurt.Options
	// DiskWriteGBs / HDFSWriteGBs feed the output-write model.
	DiskWriteGBs float64
	HDFSWriteGBs float64
	// Prof, when non-nil, receives the wall-clock phase times of every
	// task this hardware model executes.
	Prof *perf.Profiler
}

// FunctionalExecutor runs every task for real: map splits come from the
// simulated HDFS, CPU tasks interpret the streaming filters, GPU tasks run
// the full Figure-1 driver, and reducers merge actual partitions. Used for
// correctness tests and small-scale experiments.
type FunctionalExecutor struct {
	Job    *CompiledJob
	FS     *hdfs.FS
	Splits []hdfs.Split
	HW     HardwareModel

	// cache memoizes per-(split, device, local) attempts so re-runs and
	// retries are cheap and deterministic.
	cache map[mapKey]MapAttempt
	// integ is the engine-pushed data-integrity config: the fault plan's
	// input poisoning plus the skip-bad-records policy.
	integ IntegrityConfig
	// pool and the prefetch tables drive parallel execution (the engine's
	// prefetcher extension). Both tables are touched only on the engine
	// goroutine; the pool workers see nothing but the pure compute
	// closures. With a serial (or absent) pool every entry point behaves
	// exactly like the pre-parallel executor.
	pool   *sim.Pool
	pre    map[mapKey]*sim.Task
	preRed map[int]*reducePrefetch
}

// mapComputed is a prefetched map attempt: the result, its error, and the
// private profiler the compute charged (merged into HW.Prof only when the
// engine actually consumes the attempt, keeping bucket counts identical
// to a serial run).
type mapComputed struct {
	attempt MapAttempt
	err     error
	prof    *perf.Profiler
}

// reducePrefetch is an outstanding reduce precomputation pinned to the
// exact input slices it was hinted with.
type reducePrefetch struct {
	inputs [][]kv.Pair
	task   *sim.Task
}

// reduceComputed is a prefetched reduce result.
type reduceComputed struct {
	work ReduceWork
	err  error
	prof *perf.Profiler
}

type mapKey struct {
	split int
	onGPU bool
	local bool
}

// NewFunctionalExecutor prepares an executor over an input path already
// written to fs.
func NewFunctionalExecutor(job *CompiledJob, fs *hdfs.FS, inputPath string, hw HardwareModel) (*FunctionalExecutor, error) {
	splits, err := fs.FileSplits(inputPath)
	if err != nil {
		return nil, err
	}
	if hw.Device == nil {
		return nil, fmt.Errorf("mr: hardware model needs a device")
	}
	return &FunctionalExecutor{Job: job, FS: fs, Splits: splits, HW: hw, cache: map[mapKey]MapAttempt{}}, nil
}

// NumSplits implements Executor.
func (x *FunctionalExecutor) NumSplits() int { return len(x.Splits) }

// NumReducers implements Executor.
func (x *FunctionalExecutor) NumReducers() int { return x.Job.Program.NumReducers }

// Locations implements Executor.
func (x *FunctionalExecutor) Locations(split int) []int { return x.Splits[split].Locations }

// ConfigureIntegrity implements the engine's optional integrity extension.
// The memo cache is reset because poisoning changes what a split's attempt
// produces, and outstanding prefetches are discarded for the same reason.
func (x *FunctionalExecutor) ConfigureIntegrity(cfg IntegrityConfig) {
	x.integ = cfg
	x.cache = map[mapKey]MapAttempt{}
	//detlint:ignore map-iteration: discard order has no observable effect
	for _, t := range x.pre {
		t.Discard()
	}
	x.pre = nil
	//detlint:ignore map-iteration: discard order has no observable effect
	for _, pr := range x.preRed {
		pr.task.Discard()
	}
	x.preRed = nil
}

// SetWorkerPool implements the engine's prefetcher extension.
func (x *FunctionalExecutor) SetWorkerPool(p *sim.Pool) { x.pool = p }

// PrefetchMaps implements the prefetcher extension: every split's
// data-local attempt is precomputed on the pool for the device classes
// the scheduler may use. Results are served (and the private profiler
// merged) when the engine requests the matching attempt; unconsumed
// prefetches are discarded wholesale, so a parallel run records exactly
// the serial run's cache misses.
func (x *FunctionalExecutor) PrefetchMaps(gpu bool) {
	if !x.pool.Parallel() {
		return
	}
	for split := range x.Splits {
		x.prefetchMap(split, false)
		if gpu {
			x.prefetchMap(split, true)
		}
	}
}

// prefetchMap submits one (split, device, local=true) compute.
func (x *FunctionalExecutor) prefetchMap(split int, onGPU bool) {
	key := mapKey{split: split, onGPU: onGPU, local: true}
	if _, ok := x.cache[key]; ok {
		return
	}
	if _, ok := x.pre[key]; ok {
		return
	}
	locs := x.Splits[split].Locations
	if len(locs) == 0 {
		return // no node is local to this split; the hint can never match
	}
	node := locs[0] // ReadTime depends only on locality, so any local node
	if x.pre == nil {
		x.pre = map[mapKey]*sim.Task{}
	}
	x.pre[key] = x.pool.Submit(func() any {
		var prof *perf.Profiler
		if x.HW.Prof != nil {
			prof = perf.New()
		}
		attempt, err := x.computeMap(split, onGPU, node, prof)
		return mapComputed{attempt: attempt, err: err, prof: prof}
	})
}

// PrefetchReduce implements the prefetcher extension: partition p's
// fetch/merge/reduce work is precomputed against exactly these inputs. A
// fresh hint for the same partition supersedes (and discards) the old one.
func (x *FunctionalExecutor) PrefetchReduce(p int, inputs [][]kv.Pair) {
	if !x.pool.Parallel() {
		return
	}
	if old, ok := x.preRed[p]; ok {
		old.task.Discard()
	}
	if x.preRed == nil {
		x.preRed = map[int]*reducePrefetch{}
	}
	x.preRed[p] = &reducePrefetch{
		inputs: inputs,
		task: x.pool.Submit(func() any {
			var prof *perf.Profiler
			if x.HW.Prof != nil {
				prof = perf.New()
			}
			work, err := x.computeReduce(inputs, prof)
			return reduceComputed{work: work, err: err, prof: prof}
		}),
	}
}

// sameInputs reports whether two input collections are the identical
// slices (same backing arrays in the same order) — the validity test for
// a prefetched reduce, since a map re-execution replaces its partition
// slices wholesale.
func sameInputs(a, b [][]kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		if len(a[i]) > 0 && &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// PartitionSum implements the engine's verify-on-fetch extension: the CRC32
// of the partition under the job's KV schema, matching the sum stored at
// commit time.
func (x *FunctionalExecutor) PartitionSum(pairs []kv.Pair) uint32 {
	return seqfile.PartitionSum(x.Job.Schema, pairs)
}

// prunePoisoned applies the plan's input poisoning to a split's records
// (newline-delimited, split-relative indices — LineRecordReader semantics).
// With skip-bad-records on, poisoned lines are dropped and counted; with it
// off, the first poisoned line kills the attempt with ErrBadRecord.
func (x *FunctionalExecutor) prunePoisoned(split int, input []byte) ([]byte, int, error) {
	plan := x.integ.Plan
	if !plan.Poisons() {
		return input, 0, nil
	}
	var out []byte
	skipped := 0
	rec := 0
	for start := 0; start < len(input); rec++ {
		end := start
		for end < len(input) && input[end] != '\n' {
			end++
		}
		if end < len(input) {
			end++ // keep the newline with its record
		}
		if plan.RecordPoisoned(split, rec) {
			if !x.integ.SkipBadRecords {
				return nil, 0, fmt.Errorf("mr: map task %d record %d: %w", split, rec, faults.ErrBadRecord)
			}
			if skipped == 0 {
				// First poison: copy the clean prefix; the common
				// poison-free case stays zero-copy.
				out = append(out, input[:start]...)
			}
			skipped++
		} else if skipped > 0 {
			out = append(out, input[start:end]...)
		}
		start = end
	}
	if skipped == 0 {
		return input, 0, nil
	}
	return out, skipped, nil
}

// MapTask implements Executor. A cache hit returns the memoized attempt;
// a prefetched attempt is consumed (merging its private profiler at the
// point the serial engine would have computed, preserving bucket counts);
// anything else computes inline, exactly the serial path.
func (x *FunctionalExecutor) MapTask(split int, onGPU bool, node int) (MapAttempt, error) {
	key := mapKey{split: split, onGPU: onGPU, local: x.Splits[split].IsLocal(node)}
	if attempt, ok := x.cache[key]; ok {
		return attempt, nil
	}
	if t, ok := x.pre[key]; ok {
		delete(x.pre, key)
		r := t.Wait().(mapComputed)
		x.HW.Prof.Merge(r.prof)
		if r.err != nil {
			return MapAttempt{}, r.err
		}
		x.cache[key] = r.attempt
		return r.attempt, nil
	}
	attempt, err := x.computeMap(split, onGPU, node, x.HW.Prof)
	if err != nil {
		return MapAttempt{}, err
	}
	x.cache[key] = attempt
	return attempt, nil
}

// computeMap is the pure core of MapTask: it reads the split, prunes
// poisoned records, and runs the map (+combine) stage on the requested
// device, charging the given profiler. It touches no executor state, so
// it is safe to run on a pool worker.
func (x *FunctionalExecutor) computeMap(split int, onGPU bool, node int, prof *perf.Profiler) (MapAttempt, error) {
	sp := x.Splits[split]
	input, err := x.FS.ReadSplit(sp)
	if err != nil {
		return MapAttempt{}, err
	}
	input, skipped, err := x.prunePoisoned(split, input)
	if err != nil {
		return MapAttempt{}, err
	}
	readTime := x.FS.ReadTime(sp, node)
	var attempt MapAttempt
	if onGPU {
		res, err := gpurt.RunTask(x.HW.Device, x.Job.MapC, x.Job.CombineC, input, gpurt.TaskConfig{
			NumReducers:   x.Job.Program.NumReducers,
			Opts:          x.HW.Opts,
			InputReadTime: readTime,
			DiskWriteGBs:  x.HW.DiskWriteGBs,
			HDFSWriteGBs:  x.HW.HDFSWriteGBs,
			Prof:          prof,
		})
		if err != nil {
			return MapAttempt{}, err
		}
		attempt = MapAttempt{
			Duration:    res.Total(),
			Partitions:  res.Partitions,
			MapOutput:   res.MapOutput,
			OutputBytes: res.OutputBytes,
			GPU:         &GPUAttemptDetail{Stages: res.Times, Profiles: res.Profiles},
		}
	} else {
		res, err := streaming.RunMapTask(x.Job.MapF, x.Job.CombineF, input, streaming.MapTaskConfig{
			Schema:        x.Job.Schema,
			NumReducers:   x.Job.Program.NumReducers,
			CPU:           x.HW.CPU,
			InputReadTime: readTime,
			DiskWriteGBs:  x.HW.DiskWriteGBs,
			HDFSWriteGBs:  x.HW.HDFSWriteGBs,
			Prof:          prof,
		})
		if err != nil {
			return MapAttempt{}, err
		}
		attempt = MapAttempt{
			Duration:    res.Times.Total(),
			Partitions:  res.Partitions,
			MapOutput:   res.MapOutput,
			OutputBytes: res.OutputBytes,
		}
	}
	attempt.SkippedRecords = skipped
	if attempt.Partitions != nil {
		// Checksum-on-write: one CRC per partition, computed once per
		// cached attempt. Reducers verify on fetch.
		sums := make([]uint32, len(attempt.Partitions))
		for p, part := range attempt.Partitions {
			sums[p] = seqfile.PartitionSum(x.Job.Schema, part)
		}
		attempt.PartitionSums = sums
	}
	return attempt, nil
}

// ReduceTask implements Executor. A prefetched result is served only when
// the engine asks for exactly the hinted input slices; a mismatch (a map
// re-executed and replaced its partitions) discards the hint and computes
// inline, the serial path.
func (x *FunctionalExecutor) ReduceTask(p int, inputs [][]kv.Pair) (ReduceWork, error) {
	if pr, ok := x.preRed[p]; ok {
		delete(x.preRed, p)
		if sameInputs(pr.inputs, inputs) {
			r := pr.task.Wait().(reduceComputed)
			x.HW.Prof.Merge(r.prof)
			return r.work, r.err
		}
		pr.task.Discard()
	}
	return x.computeReduce(inputs, x.HW.Prof)
}

// computeReduce is the pure core of ReduceTask, safe on a pool worker.
func (x *FunctionalExecutor) computeReduce(inputs [][]kv.Pair, prof *perf.Profiler) (ReduceWork, error) {
	var bytes int64
	for _, in := range inputs {
		bytes += int64(len(in)) * int64(x.Job.Schema.SlotKeyLen()+x.Job.Schema.SlotValLen()+12)
	}
	out, compute, err := streaming.RunReduce(x.Job.ReduceF, x.Job.Schema, inputs, x.HW.CPU, prof)
	if err != nil {
		return ReduceWork{}, err
	}
	shuffle := float64(bytes) / 1e9 // fetched at ~1 GB/s aggregate
	write := float64(int64(len(out))*24) / (x.writeGBs() * 1e9)
	return ReduceWork{ShuffleTime: shuffle, ComputeTime: compute + write, Output: out}, nil
}

func (x *FunctionalExecutor) writeGBs() float64 {
	if x.HW.HDFSWriteGBs > 0 {
		return x.HW.HDFSWriteGBs
	}
	return 0.12
}

// SampledExecutor replays a handful of measured per-variant task durations
// across an arbitrarily large task count — how the cluster-scale Figure-4
// experiments keep the paper's Table-2 task counts tractable. It is
// timing-only: no functional outputs flow to the reducers.
type SampledExecutor struct {
	Splits   int
	Reducers int
	Slaves   int
	// CPUDur / GPUDur are per-variant durations; split i uses variant
	// i % len(CPUDur).
	CPUDur []float64
	GPUDur []float64
	// RemoteReadPenalty is added when the split is not node-local.
	RemoteReadPenalty float64
	// MapOutputBytes sizes the shuffle per map task.
	MapOutputBytes int64
	// ReduceCompute is the per-reducer merge+reduce+write time.
	ReduceCompute float64
	// ShuffleGBs is the reducer fetch bandwidth.
	ShuffleGBs float64
	// Jitter adds deterministic per-split duration variance (fraction of
	// the sampled duration, uniform in ±Jitter). Real fileSplits differ in
	// record mix, so task times spread; without variance, uniform tasks
	// quantize the job into lockstep waves no real cluster exhibits.
	Jitter float64
	// NodeSpeed optionally scales task durations per node (inter-node
	// heterogeneity, the paper's stated future work: a value of 2.0 makes
	// that node's tasks twice as slow). Missing/zero entries mean 1.0.
	NodeSpeed []float64
}

// nodeFactor returns the duration multiplier for a node.
func (x *SampledExecutor) nodeFactor(node int) float64 {
	if node < len(x.NodeSpeed) && x.NodeSpeed[node] > 0 {
		return x.NodeSpeed[node]
	}
	return 1
}

// jitterFactor returns the deterministic duration multiplier for a split.
func (x *SampledExecutor) jitterFactor(split int) float64 {
	if x.Jitter == 0 {
		return 1
	}
	h := uint64(split)*0x9E3779B97F4A7C15 + 0x85EBCA6B
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	u := float64(h%1_000_000) / 1_000_000 // [0,1)
	return 1 + x.Jitter*(2*u-1)
}

// NumSplits implements Executor.
func (x *SampledExecutor) NumSplits() int { return x.Splits }

// NumReducers implements Executor.
func (x *SampledExecutor) NumReducers() int { return x.Reducers }

// Locations implements Executor. Placement mimics HDFS round-robin
// primaries with two deterministic extra replicas.
func (x *SampledExecutor) Locations(split int) []int {
	if x.Slaves <= 1 {
		return []int{0}
	}
	a := split % x.Slaves
	b := (split*7 + 3) % x.Slaves
	c := (split*13 + 5) % x.Slaves
	return []int{a, b, c}
}

// MapTask implements Executor.
func (x *SampledExecutor) MapTask(split int, onGPU bool, node int) (MapAttempt, error) {
	var dur float64
	if onGPU {
		dur = x.GPUDur[split%len(x.GPUDur)]
	} else {
		dur = x.CPUDur[split%len(x.CPUDur)]
	}
	dur *= x.jitterFactor(split) * x.nodeFactor(node)
	local := false
	for _, loc := range x.Locations(split) {
		if loc == node {
			local = true
			break
		}
	}
	if !local {
		dur += x.RemoteReadPenalty
	}
	return MapAttempt{Duration: dur, OutputBytes: x.MapOutputBytes}, nil
}

// ReduceTask implements Executor.
func (x *SampledExecutor) ReduceTask(p int, inputs [][]kv.Pair) (ReduceWork, error) {
	gbs := x.ShuffleGBs
	if gbs == 0 {
		gbs = 1.0
	}
	totalBytes := float64(x.MapOutputBytes) * float64(x.Splits) / float64(max(1, x.Reducers))
	return ReduceWork{
		ShuffleTime: totalBytes / (gbs * 1e9),
		ComputeTime: x.ReduceCompute,
	}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
