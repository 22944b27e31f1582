// Package mr implements the Hadoop 1.x MapReduce engine that HeteroDoop
// extends (paper §2.2, §5.1, §6): a JobTracker and per-slave TaskTrackers
// communicating via heartbeats, map slots and per-GPU slots, data-local
// task assignment, the shuffle/merge/reduce pipeline, task-failure
// rescheduling, and three map schedulers — CPU-only (baseline Hadoop),
// GPU-first, and HeteroDoop's tail scheduling (Algorithm 2).
//
// The engine runs on virtual time (package sim); task durations come from
// an Executor, which either runs tasks functionally (integration tests,
// small jobs) or replays sampled per-split measurements (cluster-scale
// experiments).
package mr

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/gpurt"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SchedulerKind selects the map-task scheduler.
type SchedulerKind int

// Schedulers.
const (
	// CPUOnly is baseline Hadoop: no GPU slots.
	CPUOnly SchedulerKind = iota
	// GPUFirst places a task on a free GPU if any, else a free CPU slot.
	GPUFirst
	// TailSched is HeteroDoop's Algorithm 2: GPU-first until the job/task
	// tail begins, then tasks are forced onto GPUs.
	//
	// Note on fidelity: the paper's Algorithm 2 as printed compares
	// `taskTail <= numMapsRemainingPerNode -> forceGPU`, which contradicts
	// both the paper's prose and Figure 3 (the tail is when FEW tasks
	// remain). We implement the semantics of Figure 3: force GPU when
	// remaining-per-node <= taskTail, and throttle the JobTracker to
	// numGPUs assignments per heartbeat when remaining <= jobTail.
	TailSched
)

func (s SchedulerKind) String() string {
	switch s {
	case CPUOnly:
		return "cpu-only"
	case GPUFirst:
		return "gpu-first"
	case TailSched:
		return "tail"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(s))
	}
}

// NodeConfig describes one slave node's slots (Table 3 rows "Max. Map
// Slots Per Node" and "Max. Reduce Slots Per Node").
type NodeConfig struct {
	MapSlots    int // CPU map slots (== cores used for maps)
	ReduceSlots int
	GPUs        int // one reserved slot per GPU (consumes no CPU)
}

// ClusterConfig describes the simulated cluster for one job run.
type ClusterConfig struct {
	Name   string
	Slaves int
	Node   NodeConfig
	// Scheduler selects the map scheduling policy.
	Scheduler SchedulerKind
	// HeartbeatSec is the TaskTracker heartbeat interval.
	HeartbeatSec float64
	// ReduceSlowstart is the completed-maps fraction before reduces launch
	// (Table 3: 20%).
	ReduceSlowstart float64
	// ShuffleGBs is the per-reducer fetch bandwidth.
	ShuffleGBs float64
	// Faults is the deterministic fault-injection plan for the run (nil =
	// perfect cluster). The plan is cloned, so the caller's copy is never
	// mutated; a zero plan seed inherits Seed.
	Faults *faults.Plan
	// MaxTaskAttempts caps failed attempts per map task before the job is
	// failed with a JobFailure (Hadoop mapred.map.max.attempts). Default 4.
	MaxTaskAttempts int
	// HeartbeatExpirySec is how long the JobTracker tolerates silence
	// before declaring a TaskTracker dead, requeueing its running attempts
	// and re-executing its committed map outputs. Default 10 heartbeats.
	HeartbeatExpirySec float64
	// SkipBadRecords opts the job into Hadoop's skip-bad-records mode:
	// poisoned input records are dropped (and accounted in JobStats)
	// instead of crashing the map attempt.
	SkipBadRecords bool
	// MaxSkippedRecords bounds the skips a job may accumulate before it is
	// failed with FailSkipLimitExceeded. Default 64.
	MaxSkippedRecords int
	// SpeculativeExecution enables backup attempts for straggling map
	// tasks on idle slots once the pending queue drains. The paper's runs
	// disable it (Table 3); this reproduction implements it as an
	// extension, mainly for the inter-node-heterogeneity scenario the
	// paper defers to future work (§9).
	SpeculativeExecution bool
	// Seed drives all randomized decisions (failure draws).
	Seed uint64
	// Obs, when non-nil, receives spans and metrics from the run. A nil
	// recorder keeps every instrumentation call a no-op; scheduling and
	// JobStats are identical either way.
	Obs *obs.Recorder
	// Workers bounds host-side parallel execution of independent task
	// computations (map attempts, reduce fetch/sort/reduce work). 0 or 1
	// runs the engine exactly as the serial implementation — no worker
	// goroutines at all. Any value yields byte-identical output, stats,
	// traces, and metrics; only wall-clock time changes.
	Workers int
	// Pool optionally shares an existing worker pool (e.g. an experiment
	// sweep running several jobs concurrently). When set, Workers is
	// ignored and the pool is not closed by RunJob.
	Pool *sim.Pool
}

// Recovery thresholds. A node's first blacklisting lasts 4 heartbeats and
// each further one doubles it; a failed fetch is retried after a quarter
// heartbeat, doubling per consecutive failure up to 32x.
const (
	// nodeFailureLimit is the task-failure count that blacklists a node.
	nodeFailureLimit = 3
	// fetchRetries is how many consecutive failures of one map-output
	// fetch a reducer tolerates before reporting the output to the
	// JobTracker (Hadoop's shuffle retry burst). The reducer keeps
	// retrying with capped exponential backoff either way.
	fetchRetries = 3
	// fetchFailureNotices is how many fetch-failure reports a map output
	// accumulates before the JobTracker declares it lost and re-executes
	// the map (Hadoop's "too many fetch failures").
	fetchFailureNotices = 3
)

func (c *ClusterConfig) fillDefaults() {
	if c.HeartbeatSec == 0 {
		c.HeartbeatSec = 3.0
	}
	if c.ReduceSlowstart == 0 {
		c.ReduceSlowstart = 0.2
	}
	if c.ShuffleGBs == 0 {
		c.ShuffleGBs = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxTaskAttempts == 0 {
		c.MaxTaskAttempts = 4
	}
	if c.HeartbeatExpirySec == 0 {
		c.HeartbeatExpirySec = 10 * c.HeartbeatSec
	}
	if c.MaxSkippedRecords == 0 {
		c.MaxSkippedRecords = 64
	}
}

// Validate checks the configuration.
func (c *ClusterConfig) Validate() error {
	if c.Slaves <= 0 {
		return fmt.Errorf("mr: cluster needs at least one slave")
	}
	if c.Node.MapSlots <= 0 && c.Node.GPUs <= 0 {
		return fmt.Errorf("mr: node has no map capacity")
	}
	if c.Scheduler != CPUOnly && c.Node.GPUs <= 0 {
		return fmt.Errorf("mr: scheduler %v needs GPUs", c.Scheduler)
	}
	if c.Scheduler == CPUOnly && c.Node.GPUs > 0 {
		return fmt.Errorf("mr: cpu-only scheduler must not have GPU slots")
	}
	return nil
}

// MapAttempt is the outcome of one map task execution.
type MapAttempt struct {
	// Duration is the end-to-end task time in seconds.
	Duration float64
	// Partitions holds per-reducer combined output (functional runs only).
	Partitions [][]kv.Pair
	// MapOutput holds map-only output (functional runs only).
	MapOutput []kv.Pair
	// OutputBytes sizes the intermediate output for the shuffle model.
	OutputBytes int64
	// PartitionSums holds one CRC32 per reduce partition, computed once
	// when the attempt's output is materialized (checksum-on-write).
	// Reducers recompute and compare on fetch. Nil for timing-only
	// executors, which makes checksum verification vacuous.
	PartitionSums []uint32
	// SkippedRecords counts poisoned input records this attempt dropped in
	// skip-bad-records mode.
	SkippedRecords int
	// GPU carries the device-side breakdown of a GPU attempt (nil for CPU
	// attempts and for executors that only replay timings).
	GPU *GPUAttemptDetail
}

// GPUAttemptDetail is the profiling payload of one GPU map attempt: the
// Figure-6 stage breakdown plus per-kernel profiles for the trace.
type GPUAttemptDetail struct {
	Stages   gpurt.StageTimes
	Profiles []obs.KernelProfile
}

// ReduceWork is the outcome of one reduce task execution.
type ReduceWork struct {
	// ShuffleTime covers fetching this reducer's partitions.
	ShuffleTime float64
	// ComputeTime covers merge + reduce function + HDFS write.
	ComputeTime float64
	// Output holds the reducer's final pairs (functional runs only).
	Output []kv.Pair
}

// Executor supplies task work to the engine.
type Executor interface {
	// NumSplits is the number of map tasks.
	NumSplits() int
	// NumReducers is the number of reduce tasks (0 = map-only).
	NumReducers() int
	// Locations lists the nodes holding split i's data.
	Locations(split int) []int
	// MapTask executes map task `split` on the given node and device.
	MapTask(split int, onGPU bool, node int) (MapAttempt, error)
	// ReduceTask executes reduce task p over the collected inputs.
	ReduceTask(p int, inputs [][]kv.Pair) (ReduceWork, error)
}

// IntegrityConfig carries the data-integrity settings RunJob pushes into an
// executor before the job starts: the normalized fault plan (for input
// poisoning) and the skip-bad-records policy.
type IntegrityConfig struct {
	Plan              *faults.Plan
	SkipBadRecords    bool
	MaxSkippedRecords int
}

// integrityConfigurable is the optional Executor extension for input
// poisoning and skip-bad-records. Executors that don't read real input
// (timing-only replays, test fakes) simply don't implement it.
type integrityConfigurable interface {
	ConfigureIntegrity(IntegrityConfig)
}

// partitionSummer is the optional Executor extension the engine uses to
// recompute a partition's checksum on fetch (verify-on-fetch). Only the
// executor knows the job's KV schema, so the engine delegates the CRC.
type partitionSummer interface {
	PartitionSum(pairs []kv.Pair) uint32
}

// prefetcher is the optional Executor extension for parallel execution.
// The engine hands the executor a worker pool and hints at work it will
// (probably) request later; the executor may precompute pure task results
// on the pool and serve them from its cache when the engine's event loop
// reaches the corresponding MapTask/ReduceTask call. Prefetching is
// strictly a wall-clock optimization: a hinted computation that the
// engine never requests is discarded without observable effect, and a
// request that was never hinted computes inline exactly as the serial
// engine would.
type prefetcher interface {
	// SetWorkerPool installs the pool (called once, before any hint).
	SetWorkerPool(p *sim.Pool)
	// PrefetchMaps hints that every split's map attempt may be requested
	// on the given device classes (data-local placement).
	PrefetchMaps(gpu bool)
	// PrefetchReduce hints that partition p will be reduced over exactly
	// these inputs. A later ReduceTask call with different inputs (e.g.
	// after a map re-execution replaced them) ignores the hint.
	PrefetchReduce(p int, inputs [][]kv.Pair)
}

// JobStats summarizes a completed job.
type JobStats struct {
	Makespan float64
	// Device placement counts.
	MapsOnCPU, MapsOnGPU int
	// Retries counts failed GPU attempts that were rescheduled.
	Retries int
	// DataLocalMaps counts node-local map tasks.
	DataLocalMaps int
	// MaxSpeedup is the peak per-node GPU/CPU speedup the JobTracker saw.
	MaxSpeedup float64
	// ForcedGPUTasks counts tasks tail-forced onto GPUs.
	ForcedGPUTasks int
	// SpeculativeLaunched / SpeculativeWon count backup attempts and how
	// many finished before the original (speculative execution extension).
	SpeculativeLaunched, SpeculativeWon int
	// Output is the job's final output (functional runs): reduce outputs
	// concatenated in partition order, or map outputs for map-only jobs.
	Output []kv.Pair
	// MapTimeCPU / MapTimeGPU are the average durations observed.
	MapTimeCPU, MapTimeGPU float64
	// MapPhaseEnd is the virtual time the last map task committed.
	MapPhaseEnd float64
	// ShuffleResidualSec sums, over reducers, the shuffle time left after
	// the map phase ended (the serial tail the overlap could not hide).
	ShuffleResidualSec float64
	// GPUQueueWaitSec sums the time tail-forced tasks spent waiting in GPU
	// driver queues before a slot freed up.
	GPUQueueWaitSec float64
	// GPUQueuePeak is the deepest any single node's GPU driver queue got.
	GPUQueuePeak int
	// FailedAttempts counts injected task-attempt failures (CPU and GPU).
	FailedAttempts int
	// LostAttempts counts running attempts killed by node death or GPU
	// retirement.
	LostAttempts int
	// NodesLost counts TaskTracker deaths the JobTracker declared.
	NodesLost int
	// MapsReexecuted counts committed map outputs re-run after their host
	// died while reducers still needed them (map-output-loss semantics).
	MapsReexecuted int
	// NodeBlacklists counts blacklist decisions against failing nodes.
	NodeBlacklists int
	// GPUFallbacks counts splits demoted to the CPU path after a GPU
	// attempt failure or device retirement.
	GPUFallbacks int
	// ReducesRestarted counts reduce attempts restarted after their host
	// died.
	ReducesRestarted int
	// FetchFailures counts reducer fetch attempts that failed (transient
	// fetch faults plus checksum mismatches).
	FetchFailures int
	// CorruptPartitions counts fetches rejected by checksum verification.
	CorruptPartitions int
	// Refetches counts fetch retries (attempts beyond the first per
	// reducer/map-output pair).
	Refetches int
	// MapOutputsLost counts map outputs the JobTracker declared lost after
	// accumulating too many fetch-failure reports (each one re-executes
	// the map, also counted in MapsReexecuted).
	MapOutputsLost int
	// RecordsSkipped counts poisoned input records dropped across the job
	// in skip-bad-records mode (exact: one per poisoned record read).
	RecordsSkipped int
	// Events counts the discrete events the engine fired up to the job's
	// end, the simulation's own work measure.
	Events uint64
}
