package mr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/faults"
	"repro/internal/gpurt"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Trace track lanes within each node's process: one row per concern so
// overlapping activity stays readable in chrome://tracing.
const (
	laneHeartbeat  = 0
	laneCPU        = 1
	laneGPU        = 2
	laneGPUQueue   = 3
	laneReduceBase = 4 // + partition id
)

// RunJob executes a job on the simulated cluster and returns its stats.
func RunJob(cfg ClusterConfig, exec Executor) (*JobStats, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan := cfg.Faults.Clone()
	if plan != nil && plan.Seed == 0 {
		plan.Seed = cfg.Seed
	}
	if err := plan.Validate(cfg.Slaves); err != nil {
		return nil, err
	}
	// Push the integrity settings into executors that read real input, and
	// borrow the executor's schema-aware checksum for verify-on-fetch.
	if ic, ok := exec.(integrityConfigurable); ok {
		ic.ConfigureIntegrity(IntegrityConfig{
			Plan:              plan,
			SkipBadRecords:    cfg.SkipBadRecords,
			MaxSkippedRecords: cfg.MaxSkippedRecords,
		})
	}
	splits := exec.NumSplits()
	e := &engine{
		cfg:           cfg,
		exec:          exec,
		eng:           sim.NewEngine(),
		plan:          plan,
		stats:         &JobStats{},
		jt:            newJobTracker(cfg, exec),
		slaves:        make([]*taskTracker, cfg.Slaves),
		attempts:      make([][]*attemptRun, splits),
		splitDone:     make([]bool, splits),
		speculated:    make([]bool, splits),
		attemptSeq:    make([]int, splits),
		failCount:     make([]int, splits),
		gpuDemoted:    make([]bool, splits),
		mapHost:       make([]int, splits),
		commitAttempt: make([]int, splits),
		skippedBy:     make([]int, splits),
		reduceRuns:    map[int]*reduceRun{},
	}
	e.summer, _ = exec.(partitionSummer)
	// Two attempt slots per split (the original and one speculative
	// backup) from one allocation; a third in flight would reallocate.
	lists := make([]*attemptRun, 2*splits)
	for i := range e.attempts {
		e.attempts[i] = lists[2*i : 2*i : 2*i+2]
	}
	for i := range e.mapHost {
		e.mapHost[i] = -1
	}
	e.initObs()
	e.eng.SetEventLimit(50_000_000)
	// Parallel execution: use (or create) the worker pool and let a
	// prefetching executor precompute pure task work on it. The event loop
	// below is untouched — prefetching only changes when task computations
	// burn host CPU, never what any event observes — so schedules, stats,
	// traces, and metrics stay byte-identical to cfg.Workers == 1.
	pool := cfg.Pool
	if pool == nil && cfg.Workers > 1 {
		pool = sim.NewPool(cfg.Workers)
		defer pool.Close()
	}
	if pf, ok := exec.(prefetcher); ok && pool.Parallel() {
		pf.SetWorkerPool(pool)
		pf.PrefetchMaps(cfg.Scheduler != CPUOnly && cfg.Node.GPUs > 0)
		e.pre = pf
	}
	for n := 0; n < cfg.Slaves; n++ {
		tt := &taskTracker{
			node:     n,
			alive:    true,
			cpuFree:  cfg.Node.MapSlots,
			gpuFree:  cfg.Node.GPUs,
			gpuTotal: cfg.Node.GPUs,
			redFree:  cfg.Node.ReduceSlots,
			speedup:  0,
		}
		tt.beat = heartbeatEvent{e: e, tt: tt}
		tt.expiry = expiryEvent{e: e, tt: tt}
		e.slaves[n] = tt
	}
	// Stagger initial heartbeats deterministically across the interval.
	for n, tt := range e.slaves {
		offset := cfg.HeartbeatSec * float64(n) / float64(cfg.Slaves)
		tt.hbEv = e.eng.At(sim.Time(offset), &tt.beat)
	}
	// Install the scheduled faults; equal-time faults apply in plan order.
	for _, f := range plan.Scheduled() {
		f := f
		e.eng.At(sim.Time(f.At), sim.Func(func() { e.applyFault(f) }))
	}
	e.eng.Run()
	if e.err != nil {
		return nil, e.err
	}
	if !e.jt.done() {
		// The event queue drained with work outstanding: classify.
		anyAlive := false
		for _, tt := range e.slaves {
			if tt.alive {
				anyAlive = true
			}
		}
		if !anyAlive && e.pendingRestarts == 0 {
			return nil, &JobFailure{Kind: FailClusterDead, Task: -1, Node: -1, Cause: faults.ErrInjected}
		}
		return nil, &JobFailure{Kind: FailStalled, Task: -1, Node: -1,
			Cause: fmt.Errorf("maps %d/%d, reduces %d/%d",
				e.jt.mapsDone, splits, e.jt.reducesDone, exec.NumReducers())}
	}
	e.stats.Makespan = float64(e.finish)
	e.stats.Events = e.eng.Fired()
	e.stats.MaxSpeedup = e.jt.maxSpeedup
	e.collectOutput()
	jobName := cfg.Name
	if jobName == "" {
		jobName = "job"
	}
	e.trace.Span(obs.CatJob, jobName, 0, e.finish, cfg.Slaves, 0,
		obs.Str("scheduler", cfg.Scheduler.String()),
		obs.Int("maps", e.jt.totalMaps),
		obs.Int("reduces", e.jt.totalReduces))
	return e.stats, nil
}

type engine struct {
	cfg    ClusterConfig
	exec   Executor
	eng    *sim.Engine
	plan   *faults.Plan
	stats  *JobStats
	jt     *jobTracker
	slaves []*taskTracker
	finish sim.Time
	err    error

	cpuDurSum, gpuDurSum float64
	cpuDurN, gpuDurN     int

	// attempts tracks in-flight executions per split (more than one when
	// speculative execution launches a backup).
	attempts   [][]*attemptRun
	splitDone  []bool
	speculated []bool
	// runs is the current chunk map attempts are carved from, one split
	// count of them per allocation.
	runs []attemptRun

	// Fault-tolerance state.
	attemptSeq []int  // next attempt id per split (keys failure draws)
	failCount  []int  // failed attempts per split (MaxTaskAttempts cap)
	gpuDemoted []bool // split prefers the CPU path after a GPU failure
	mapHost    []int  // node holding the committed map output, -1 if none
	// commitAttempt records which attempt id produced the committed map
	// output (keys the per-attempt corruption draws, so a re-executed map
	// draws fresh and recovery converges).
	commitAttempt []int
	// skippedBy is the committed attempt's skipped-record count per split
	// (set, not added, so re-execution never double-counts).
	skippedBy []int
	// summer recomputes partition checksums on fetch; nil for executors
	// without materialized output, which makes verification vacuous.
	summer partitionSummer
	// pre is the executor's prefetching extension; non-nil only when a
	// parallel pool is attached.
	pre prefetcher
	// reduceRuns tracks the live attempt per reduce partition so node
	// death can cancel and restart it.
	reduceRuns      map[int]*reduceRun
	pendingRestarts int

	// Observability. All handles are nil-safe no-ops when cfg.Obs is nil.
	trace *obs.Tracer
	met   engineMetrics
}

// engineMetrics caches the registry instruments the hot paths touch. Every
// field may be nil (no recorder) — all methods tolerate nil receivers.
type engineMetrics struct {
	heartbeats   *obs.Counter
	assigned     *obs.Counter
	local        *obs.Counter
	retries      *obs.Counter
	forced       *obs.Counter
	specLaunched *obs.Counter
	specWon      *obs.Counter
	queueDepth   *obs.Gauge
	queueWait    *obs.Counter
	shuffleResid *obs.Counter
	mapDurCPU    *obs.Histogram
	mapDurGPU    *obs.Histogram
	failInjCPU   *obs.Counter
	failInjGPU   *obs.Counter
	failNodeLost *obs.Counter
	failRetired  *obs.Counter
	mapsReexec   *obs.Counter
	nodesLost    *obs.Counter
	blacklists   *obs.Counter
	gpuFallbacks *obs.Counter
	faultsTotal  *obs.Counter
	redRestarts  *obs.Counter
	fetchFails   *obs.Counter
	corruptParts *obs.Counter
	refetches    *obs.Counter
	outputsLost  *obs.Counter
	recSkipped   *obs.Counter
	registry     *obs.Registry
}

func (e *engine) initObs() {
	e.trace = e.cfg.Obs.Tracer()
	reg := e.cfg.Obs.Metrics()
	sched := obs.L("sched", e.cfg.Scheduler.String())
	e.met = engineMetrics{
		heartbeats:   reg.Counter("mr_heartbeats_total", "TaskTracker heartbeats processed", sched),
		assigned:     reg.Counter("mr_maps_assigned_total", "Map tasks handed to TaskTrackers", sched),
		local:        reg.Counter("mr_maps_local_total", "Data-local map assignments", sched),
		retries:      reg.Counter("mr_map_retries_total", "Failed GPU attempts rescheduled", sched),
		forced:       reg.Counter("mr_forced_gpu_total", "Tasks tail-forced onto GPUs", sched),
		specLaunched: reg.Counter("mr_speculative_launched_total", "Speculative backup attempts", sched),
		specWon:      reg.Counter("mr_speculative_won_total", "Backups that beat the original", sched),
		queueDepth:   reg.Gauge("mr_gpu_queue_depth", "Tasks waiting in GPU driver queues, cluster-wide", sched),
		queueWait:    reg.Counter("mr_gpu_queue_wait_seconds_total", "Summed forced-task GPU queue wait", sched),
		shuffleResid: reg.Counter("mr_shuffle_residual_seconds_total", "Shuffle time left after the map phase", sched),
		mapDurCPU:    reg.Histogram("mr_map_duration_seconds", "Winning map attempt durations", obs.DurationBuckets, obs.L("device", "cpu"), sched),
		mapDurGPU:    reg.Histogram("mr_map_duration_seconds", "Winning map attempt durations", obs.DurationBuckets, obs.L("device", "gpu"), sched),
		failInjCPU:   reg.Counter("mr_attempt_failures_total", "Failed map attempts by cause", obs.L("cause", "injected-cpu"), sched),
		failInjGPU:   reg.Counter("mr_attempt_failures_total", "Failed map attempts by cause", obs.L("cause", "injected-gpu"), sched),
		failNodeLost: reg.Counter("mr_attempt_failures_total", "Failed map attempts by cause", obs.L("cause", "node-lost"), sched),
		failRetired:  reg.Counter("mr_attempt_failures_total", "Failed map attempts by cause", obs.L("cause", "gpu-retired"), sched),
		mapsReexec:   reg.Counter("mr_maps_reexecuted_total", "Committed map outputs re-run after node death", sched),
		nodesLost:    reg.Counter("mr_nodes_lost_total", "TaskTrackers declared dead", sched),
		blacklists:   reg.Counter("mr_node_blacklists_total", "Node blacklist decisions", sched),
		gpuFallbacks: reg.Counter("mr_gpu_fallbacks_total", "Splits demoted from GPU to CPU", sched),
		faultsTotal:  reg.Counter("mr_faults_injected_total", "Scheduled faults applied", sched),
		redRestarts:  reg.Counter("mr_reduces_restarted_total", "Reduce attempts restarted after node death", sched),
		fetchFails:   reg.Counter("mr_fetch_failures_total", "Reducer map-output fetches that failed or miscompared", sched),
		corruptParts: reg.Counter("mr_corrupt_partitions_total", "Fetches rejected by checksum verification", sched),
		refetches:    reg.Counter("mr_refetches_total", "Fetch retries beyond the first attempt", sched),
		outputsLost:  reg.Counter("mr_map_outputs_lost_total", "Map outputs declared lost after fetch-failure reports", sched),
		recSkipped:   reg.Counter("mr_records_skipped_total", "Poisoned input records dropped in skip-bad-records mode", sched),
		registry:     reg,
	}
	for n := 0; n < e.cfg.Slaves; n++ {
		proc := "node" + strconv.Itoa(n)
		e.trace.NameTrack(n, laneHeartbeat, proc, "heartbeat")
		e.trace.NameTrack(n, laneCPU, proc, "cpu")
		e.trace.NameTrack(n, laneGPU, proc, "gpu")
		e.trace.NameTrack(n, laneGPUQueue, proc, "gpu-queue")
	}
	e.trace.NameTrack(e.cfg.Slaves, 0, "jobtracker", "job")
}

// attemptRun is one in-flight map task attempt, and the handler of its
// completion event.
type attemptRun struct {
	e           *engine
	split       int
	attemptID   int
	tt          *taskTracker
	onGPU       bool
	speculative bool
	failed      bool // the plan fails this attempt partway
	duration    float64
	end         sim.Time // when the completion event fires
	attempt     MapAttempt
	ev          sim.Event
}

// Fire completes the attempt.
func (run *attemptRun) Fire() { run.e.finishAttempt(run) }

// pendingEntry is one split occurrence in a jobTracker queue. gen pins the
// occurrence to the split's enqueue generation so stale entries (from
// before a take/requeue cycle) are skipped.
type pendingEntry struct {
	split int
	gen   int
}

// jobTracker tracks pending/completed work and the cluster-wide speedup.
//
// The pending set is indexed for O(1) amortized assignment: one FIFO per
// node holding the splits stored there plus a global FIFO, each consumed
// through a head cursor with lazy deletion (an entry is live iff its split
// is still pending at the same enqueue generation). Picks are identical to
// the previous linear scan: the node queue yields the oldest pending local
// split, the global queue the oldest pending split overall.
type jobTracker struct {
	cfg          ClusterConfig
	exec         Executor
	pendingSet   []bool // by split
	numPending   int
	gen          []int
	byNode       [][]pendingEntry
	nodeHead     []int
	global       []pendingEntry
	globalHead   int
	mapsDone     int
	totalMaps    int
	reducesDone  int
	totalReduces int
	maxSpeedup   float64

	// mapResults holds functional outputs per split.
	mapResults []MapAttempt
	// reduceOut holds functional reduce outputs per partition.
	reduceOut [][]kv.Pair
	// reducesAssigned marks launched reduce tasks.
	reducesAssigned []bool
	// reduceFetched marks reducers that have collected their map inputs;
	// while any reducer has not, a dead node's committed map outputs must
	// be re-executed (Hadoop map-output-loss semantics).
	reduceFetched []bool
	// fetchReports counts fetch-failure notifications per map output; at
	// fetchFailureNotices the output is declared lost. Reset when the map
	// recommits.
	fetchReports []int
	// lastMapDone is when the map phase ended (gates reducers).
	lastMapDone sim.Time
}

func newJobTracker(cfg ClusterConfig, exec Executor) *jobTracker {
	jt := &jobTracker{
		cfg:             cfg,
		exec:            exec,
		totalMaps:       exec.NumSplits(),
		totalReduces:    exec.NumReducers(),
		pendingSet:      make([]bool, exec.NumSplits()),
		gen:             make([]int, exec.NumSplits()),
		byNode:          make([][]pendingEntry, cfg.Slaves),
		nodeHead:        make([]int, cfg.Slaves),
		mapResults:      make([]MapAttempt, exec.NumSplits()),
		reduceOut:       make([][]kv.Pair, exec.NumReducers()),
		reducesAssigned: make([]bool, exec.NumReducers()),
		reduceFetched:   make([]bool, exec.NumReducers()),
		fetchReports:    make([]int, exec.NumSplits()),
		maxSpeedup:      1,
	}
	for i := 0; i < jt.totalMaps; i++ {
		jt.enqueue(i)
	}
	return jt
}

// enqueue appends a split to the pending queues (initial fill and requeues
// after failures). A fresh generation invalidates any stale entries left
// from the split's previous time in the queue.
func (jt *jobTracker) enqueue(split int) {
	jt.gen[split]++
	jt.pendingSet[split] = true
	jt.numPending++
	entry := pendingEntry{split: split, gen: jt.gen[split]}
	jt.global = append(jt.global, entry)
	for _, loc := range jt.exec.Locations(split) {
		if loc >= 0 && loc < len(jt.byNode) {
			jt.byNode[loc] = append(jt.byNode[loc], entry)
		}
	}
}

func (jt *jobTracker) live(e pendingEntry) bool {
	return jt.pendingSet[e.split] && jt.gen[e.split] == e.gen
}

func (jt *jobTracker) take(split int) {
	jt.pendingSet[split] = false
	jt.numPending--
}

func (jt *jobTracker) remainingMaps() int { return jt.totalMaps - jt.mapsDone }

func (jt *jobTracker) pendingCount() int { return jt.numPending }

func (jt *jobTracker) done() bool {
	return jt.mapsDone == jt.totalMaps && jt.reducesDone == jt.totalReduces
}

// allReducesFetched reports whether every reducer has collected its map
// inputs, after which lost map outputs no longer matter.
func (jt *jobTracker) allReducesFetched() bool {
	for _, f := range jt.reduceFetched {
		if !f {
			return false
		}
	}
	return true
}

// takeMap removes and returns a pending map task, preferring node-local
// splits (data locality, paper §2.2). Amortized O(1): every queue entry is
// examined at most once over the job's lifetime.
func (jt *jobTracker) takeMap(node int) (int, bool, bool) {
	if jt.numPending == 0 {
		return 0, false, false
	}
	if node >= 0 && node < len(jt.byNode) {
		q := jt.byNode[node]
		for jt.nodeHead[node] < len(q) {
			e := q[jt.nodeHead[node]]
			jt.nodeHead[node]++
			if jt.live(e) {
				jt.take(e.split)
				return e.split, true, true
			}
		}
	}
	for jt.globalHead < len(jt.global) {
		e := jt.global[jt.globalHead]
		jt.globalHead++
		if jt.live(e) {
			jt.take(e.split)
			return e.split, false, true
		}
	}
	return 0, false, false
}

// requeue returns a failed task to the pending queue.
func (jt *jobTracker) requeue(split int) {
	if !jt.pendingSet[split] {
		jt.enqueue(split)
	}
}

// gpuQueued is one tail-forced task waiting in a node's GPU driver queue.
type gpuQueued struct {
	split int
	at    sim.Time
}

// taskTracker is one slave's state.
type taskTracker struct {
	node    int
	cpuFree int
	gpuFree int
	redFree int
	// gpuTotal is the node's surviving GPU count (retirements shrink it).
	gpuTotal int
	// gpuQueue holds tail-forced tasks waiting for a GPU slot.
	gpuQueue []gpuQueued
	// Speedup bookkeeping (average GPU speedup over a CPU slot).
	cpuSum, gpuSum float64
	cpuN, gpuN     int
	speedup        float64
	// numMapsRemainingPerNode from the last heartbeat response.
	remainingPerNode float64

	// Fault state.
	alive        bool      // the tracker process is running
	deadDeclared bool      // the JobTracker has written the node off
	lastHB       sim.Time  // last heartbeat the JobTracker saw
	expiryArmed  bool      // an expiry check event is outstanding
	hbEv         sim.Event // the pending heartbeat event (canceled on crash)
	hbLostUntil  sim.Time  // heartbeats suppressed until then
	slowFactor   float64   // task-duration multiplier while slowed
	slowUntil    sim.Time
	permSlow     bool
	failures     int // task failures since the last blacklist/reset
	blacklists   int // times this node has been blacklisted
	blacklisted  sim.Time

	// The tracker's recurring events, built once.
	beat   heartbeatEvent
	expiry expiryEvent
}

// heartbeatEvent fires a tracker's next heartbeat.
type heartbeatEvent struct {
	e  *engine
	tt *taskTracker
}

func (h *heartbeatEvent) Fire() { h.e.heartbeat(h.tt.node) }

// expiryEvent fires a tracker's heartbeat-expiry check.
type expiryEvent struct {
	e  *engine
	tt *taskTracker
}

func (x *expiryEvent) Fire() { x.e.checkExpiry(x.tt) }

// slowdown returns the node's current task-duration multiplier.
func (tt *taskTracker) slowdown(now sim.Time) float64 {
	if tt.slowFactor > 0 && (tt.permSlow || now < tt.slowUntil) {
		return tt.slowFactor
	}
	return 1
}

// reduceRun is the live attempt of one reduce partition. ev is whatever
// event currently drives it (the maps-done gate poll, a fetch retry
// backoff, or the completion).
type reduceRun struct {
	p  int
	tt *taskTracker
	ev sim.Event
	// Shuffle fetch state: next is the map output being fetched, tries
	// how many times it has been fetched (keying the transient-failure
	// draws; a fetched output is never fetched again, so one counter
	// serves every map), and burst the consecutive failures of that fetch
	// (reset on success and after each report).
	next  int
	tries int
	burst int
}

func (tt *taskTracker) observe(duration float64, onGPU bool) {
	if onGPU {
		tt.gpuSum += duration
		tt.gpuN++
	} else {
		tt.cpuSum += duration
		tt.cpuN++
	}
	if tt.cpuN > 0 && tt.gpuN > 0 && tt.gpuSum > 0 {
		tt.speedup = (tt.cpuSum / float64(tt.cpuN)) / (tt.gpuSum / float64(tt.gpuN))
	}
}

// heartbeat is one TaskTracker->JobTracker exchange (paper §2.2): status
// goes up, task assignments come down.
func (e *engine) heartbeat(node int) {
	if e.err != nil || e.jt.done() {
		return
	}
	tt := e.slaves[node]
	if !tt.alive {
		// Crashed: the heartbeat loop stops; restartNode re-enters it.
		return
	}
	now := e.eng.Now()
	if now < tt.hbLostUntil {
		// Heartbeats suppressed; resume when the loss window closes.
		tt.hbEv = e.eng.At(tt.hbLostUntil, &tt.beat)
		return
	}
	if tt.deadDeclared {
		e.reregister(tt)
	}
	tt.lastHB = now
	e.armExpiry(tt)
	jt := e.jt
	e.met.heartbeats.Inc()
	e.trace.Instant(obs.CatHeartbeat, "hb", now, node, laneHeartbeat)

	// Report speedup; the JobTracker remembers the maximum (Algorithm 2).
	if tt.speedup > jt.maxSpeedup {
		jt.maxSpeedup = tt.speedup
	}

	// A blacklisted node keeps heartbeating (so it can serve again after
	// the backoff) but receives no work.
	if now >= tt.blacklisted {
		// TailScheduleOnJT: decide how many tasks to hand this tracker. One
		// task per busy GPU may be prefetched into the driver's queue so the
		// GPU never idles across a heartbeat gap (the GPU driver fetches new
		// tasks eagerly, paper §5.1). Free GPUs are already counted in the
		// free-slot total, so prefetch only covers the busy ones — counting
		// all GPUs here would double-count the free ones and over-assign.
		busyGPUs := tt.gpuTotal - tt.gpuFree
		prefetch := busyGPUs - len(tt.gpuQueue)
		if prefetch < 0 {
			prefetch = 0
		}
		free := tt.cpuFree + tt.gpuFree + prefetch
		if e.cfg.Scheduler == TailSched {
			jobTail := float64(e.cfg.Node.GPUs) * jt.maxSpeedup * float64(e.cfg.Slaves)
			if float64(jt.remainingMaps()) <= jobTail {
				// Job tail: at most numGPUs tasks per heartbeat so forced
				// queues stay short.
				free = e.cfg.Node.GPUs
			}
		}
		tt.remainingPerNode = float64(jt.remainingMaps()) / float64(e.cfg.Slaves)

		for i := 0; i < free; i++ {
			split, local, ok := jt.takeMap(node)
			if !ok {
				break
			}
			e.met.assigned.Inc()
			if local {
				e.stats.DataLocalMaps++
				e.met.local.Inc()
			}
			e.placeMap(tt, split)
		}

		// Speculative execution: back up stragglers once the queue drains.
		if e.cfg.SpeculativeExecution && jt.pendingCount() == 0 && jt.remainingMaps() > 0 {
			e.trySpeculate(tt)
		}

		// Reduce scheduling after slow start.
		if jt.totalReduces > 0 && float64(jt.mapsDone) >= e.cfg.ReduceSlowstart*float64(jt.totalMaps) {
			for p := 0; p < jt.totalReduces && tt.redFree > 0; p++ {
				if jt.reducesAssigned[p] {
					continue
				}
				jt.reducesAssigned[p] = true
				tt.redFree--
				e.launchReduce(tt, p)
			}
		}
	}

	tt.hbEv = e.eng.After(sim.Duration(e.cfg.HeartbeatSec), &tt.beat)
}

// armExpiry schedules (at most one outstanding) heartbeat-expiry check for
// the node. The check re-arms itself while heartbeats keep arriving and
// declares the node dead once they stop.
func (e *engine) armExpiry(tt *taskTracker) {
	if tt.expiryArmed {
		return
	}
	tt.expiryArmed = true
	e.eng.At(tt.lastHB+sim.Time(e.cfg.HeartbeatExpirySec), &tt.expiry)
}

// checkExpiry is the armed expiry check: it re-arms while heartbeats keep
// arriving and declares the node dead once they stop.
func (e *engine) checkExpiry(tt *taskTracker) {
	tt.expiryArmed = false
	if e.err != nil || e.jt.done() || tt.deadDeclared {
		return
	}
	if e.eng.Now() < tt.lastHB+sim.Time(e.cfg.HeartbeatExpirySec) {
		e.armExpiry(tt) // a heartbeat arrived meanwhile; track it
		return
	}
	e.declareDead(tt, "heartbeat-expired")
}

// reregister readmits a tracker the JobTracker had written off (restart
// after a crash, or heartbeat loss shorter than the job). Hadoop treats
// this as a brand-new TaskTracker: fresh slots, no history.
func (e *engine) reregister(tt *taskTracker) {
	tt.deadDeclared = false
	tt.cpuFree = e.cfg.Node.MapSlots
	tt.gpuFree = tt.gpuTotal // device retirement survives restarts
	tt.redFree = e.cfg.Node.ReduceSlots
	tt.cpuSum, tt.gpuSum = 0, 0
	tt.cpuN, tt.gpuN = 0, 0
	tt.speedup = 0
	tt.failures = 0
	tt.blacklisted = 0
	e.trace.Instant(obs.CatRecovery, "node-reregistered", e.eng.Now(), tt.node, laneHeartbeat)
}

// declareDead writes a TaskTracker off: its running map and reduce
// attempts are requeued and — while any reducer still needs map inputs —
// its committed map outputs are re-executed.
func (e *engine) declareDead(tt *taskTracker, cause string) {
	if tt.deadDeclared {
		return
	}
	tt.deadDeclared = true
	now := e.eng.Now()
	e.stats.NodesLost++
	e.met.nodesLost.Inc()
	e.trace.Instant(obs.CatRecovery, "node-dead", now, tt.node, laneHeartbeat, obs.Str("cause", cause))

	// Kill the node's in-flight map attempts. Ascending split order keeps
	// requeue order deterministic.
	for split := 0; split < len(e.splitDone); split++ {
		runs := e.attempts[split]
		if len(runs) == 0 {
			continue
		}
		kept := runs[:0]
		for _, run := range runs {
			if run.tt != tt {
				kept = append(kept, run)
				continue
			}
			run.ev.Cancel()
			e.stats.LostAttempts++
			e.met.failNodeLost.Inc()
		}
		if len(kept) == len(runs) {
			continue
		}
		clear(runs[len(kept):])
		e.attempts[split] = kept
		if len(kept) == 0 && !e.splitDone[split] {
			e.jt.requeue(split)
		}
	}
	// Tasks parked in the node's GPU driver queue never started; requeue.
	for _, q := range tt.gpuQueue {
		e.met.queueDepth.Add(-1)
		if !e.splitDone[q.split] && len(e.attempts[q.split]) == 0 {
			e.jt.requeue(q.split)
		}
	}
	tt.gpuQueue = nil

	// Restart the node's reduce attempts elsewhere.
	for p := 0; p < e.jt.totalReduces; p++ {
		run, ok := e.reduceRuns[p]
		if !ok || run.tt != tt {
			continue
		}
		run.ev.Cancel()
		delete(e.reduceRuns, p)
		e.jt.reducesAssigned[p] = false
		e.jt.reduceFetched[p] = false
		e.stats.ReducesRestarted++
		e.met.redRestarts.Inc()
		e.trace.Instant(obs.CatRecovery, "reduce-restart", now, tt.node, laneHeartbeat, obs.Int("partition", p))
	}

	// Map-output loss: committed map outputs lived on the dead node's
	// local disk; while reducers still need them they must be re-executed
	// (Hadoop §"map output loss" semantics). Map-only jobs write straight
	// to HDFS, so their commits survive.
	if e.jt.totalReduces > 0 && !e.jt.allReducesFetched() {
		for split := 0; split < len(e.splitDone); split++ {
			if !e.splitDone[split] || e.mapHost[split] != tt.node {
				continue
			}
			e.splitDone[split] = false
			e.mapHost[split] = -1
			e.jt.mapResults[split] = MapAttempt{}
			e.jt.mapsDone--
			e.stats.MapsReexecuted++
			e.met.mapsReexec.Inc()
			e.jt.requeue(split)
			e.trace.Instant(obs.CatRecovery, "map-output-lost", now, tt.node, laneHeartbeat, obs.Int("split", split))
		}
	}

	// If nothing is left to run the job and nothing will come back, fail
	// fast instead of letting the simulation hang.
	anyAlive := false
	for _, s := range e.slaves {
		if s.alive {
			anyAlive = true
		}
	}
	if !anyAlive && e.pendingRestarts == 0 {
		e.fail(&JobFailure{Kind: FailClusterDead, Task: -1, Node: tt.node, Cause: faults.ErrInjected})
	}
}

// applyFault executes one scheduled fault from the plan.
func (e *engine) applyFault(f faults.Fault) {
	if e.err != nil || e.jt.done() {
		return
	}
	tt := e.slaves[f.Node]
	now := e.eng.Now()
	e.met.faultsTotal.Inc()
	e.trace.Instant(obs.CatFault, f.Kind.String(), now, f.Node, laneHeartbeat, obs.Int("node", f.Node))
	switch f.Kind {
	case faults.NodeCrash:
		if !tt.alive {
			return
		}
		tt.alive = false
		tt.hbEv.Cancel()
		// Its tasks die silently; the JobTracker only learns at expiry.
		for split := 0; split < len(e.splitDone); split++ {
			for _, run := range e.attempts[split] {
				if run.tt == tt {
					run.ev.Cancel()
				}
			}
		}
		for p := 0; p < e.jt.totalReduces; p++ {
			if run, ok := e.reduceRuns[p]; ok && run.tt == tt {
				run.ev.Cancel()
			}
		}
		if f.RestartAfter > 0 {
			e.pendingRestarts++
			e.eng.After(sim.Duration(f.RestartAfter), sim.Func(func() { e.restartNode(tt) }))
		}
	case faults.HeartbeatLoss:
		if until := now + sim.Time(f.Duration); until > tt.hbLostUntil {
			tt.hbLostUntil = until
		}
	case faults.GPURetire:
		e.retireGPU(tt)
	case faults.Slowdown:
		tt.slowFactor = f.Factor
		if f.Duration > 0 {
			tt.slowUntil = now + sim.Time(f.Duration)
			tt.permSlow = false
		} else {
			tt.permSlow = true
		}
	}
}

// retireGPU permanently removes one GPU from the node, aborting whatever
// ran on it and demoting that split to the CPU path.
func (e *engine) retireGPU(tt *taskTracker) {
	if tt.gpuTotal <= 0 {
		return
	}
	tt.gpuTotal--
	if tt.gpuFree > 0 {
		// An idle device retired; the slot just disappears.
		tt.gpuFree--
	} else {
		// Abort the node's oldest running GPU attempt (lowest split id for
		// determinism); its slot vanishes with the device.
		for split := 0; split < len(e.splitDone); split++ {
			var victim *attemptRun
			for _, run := range e.attempts[split] {
				if run.tt == tt && run.onGPU {
					victim = run
					break
				}
			}
			if victim == nil {
				continue
			}
			victim.ev.Cancel()
			e.dropAttempt(victim)
			e.stats.LostAttempts++
			e.met.failRetired.Inc()
			e.gpuDemoted[split] = true
			if !e.splitDone[split] && len(e.attempts[split]) == 0 {
				e.jt.requeue(split)
			}
			break
		}
	}
	if tt.gpuTotal == 0 {
		// No GPUs left: whatever waited in the driver queue reschedules.
		for _, q := range tt.gpuQueue {
			e.met.queueDepth.Add(-1)
			if !e.splitDone[q.split] && len(e.attempts[q.split]) == 0 {
				e.jt.requeue(q.split)
			}
		}
		tt.gpuQueue = nil
	}
}

// restartNode brings a crashed tracker back RestartAfter seconds later.
func (e *engine) restartNode(tt *taskTracker) {
	e.pendingRestarts--
	if e.err != nil || e.jt.done() || tt.alive {
		return
	}
	tt.alive = true
	if !tt.deadDeclared {
		// The crash was shorter than the expiry window, but the process
		// state and local map outputs are gone all the same.
		e.declareDead(tt, "node-restart")
	}
	if e.err != nil {
		return
	}
	e.trace.Instant(obs.CatRecovery, "node-restarted", e.eng.Now(), tt.node, laneHeartbeat)
	e.heartbeat(tt.node) // re-registers and restarts the heartbeat loop
}

// placeMap applies the TaskTracker-side policy (TailScheduleOnTT).
func (e *engine) placeMap(tt *taskTracker, split int) {
	// A split whose GPU attempt failed retries on the CPU path when a CPU
	// slot is open (failure demotion, paper §5.1).
	if e.gpuDemoted[split] && tt.cpuFree > 0 {
		e.startMap(tt, split, false)
		return
	}
	switch e.cfg.Scheduler {
	case CPUOnly:
		e.startMap(tt, split, false)
	case GPUFirst:
		if tt.gpuFree > 0 {
			e.startMap(tt, split, true)
		} else if tt.cpuFree > 0 {
			e.startMap(tt, split, false)
		} else {
			// Over-assigned; wait on the GPU queue.
			e.enqueueGPU(tt, split)
		}
	case TailSched:
		taskTail := float64(e.cfg.Node.GPUs) * tt.speedup
		if tt.speedup > 0 && tt.gpuTotal > 0 && tt.remainingPerNode <= taskTail {
			// Task tail: force GPU execution even if the GPU is busy.
			e.stats.ForcedGPUTasks++
			e.met.forced.Inc()
			if tt.gpuFree > 0 {
				e.startMap(tt, split, true)
			} else {
				e.enqueueGPU(tt, split)
			}
			return
		}
		if tt.gpuFree > 0 {
			e.startMap(tt, split, true)
		} else if tt.cpuFree > 0 {
			e.startMap(tt, split, false)
		} else {
			e.enqueueGPU(tt, split)
		}
	}
}

// enqueueGPU parks a task in tt's GPU driver queue and tracks the depth.
func (e *engine) enqueueGPU(tt *taskTracker, split int) {
	tt.gpuQueue = append(tt.gpuQueue, gpuQueued{split: split, at: e.eng.Now()})
	if d := len(tt.gpuQueue); d > e.stats.GPUQueuePeak {
		e.stats.GPUQueuePeak = d
	}
	e.met.queueDepth.Add(1)
}

// startMap occupies a slot and schedules the task's completion.
func (e *engine) startMap(tt *taskTracker, split int, onGPU bool) {
	e.startAttempt(tt, split, onGPU, false)
}

func (e *engine) startAttempt(tt *taskTracker, split int, onGPU, speculative bool) {
	if e.err != nil {
		return
	}
	attemptID := e.attemptSeq[split]
	e.attemptSeq[split]++
	if !onGPU && e.gpuDemoted[split] {
		// The demoted split reached a CPU slot: the GPU→CPU fallback.
		e.gpuDemoted[split] = false
		e.stats.GPUFallbacks++
		e.met.gpuFallbacks.Inc()
		e.trace.Instant(obs.CatRecovery, "gpu-fallback", e.eng.Now(), tt.node, laneCPU, obs.Int("split", split))
	}
	attempt, err := e.exec.MapTask(split, onGPU, tt.node)
	if err != nil {
		if errors.Is(err, faults.ErrBadRecord) {
			// Poisoned input with skip-bad-records off. The poison draw is
			// deterministic, so every retry would crash identically.
			e.fail(&JobFailure{Kind: FailBadRecord, Task: split, Node: tt.node, Cause: err})
			return
		}
		e.fail(fmt.Errorf("mr: map task %d on node %d: %w", split, tt.node, err))
		return
	}
	if onGPU {
		tt.gpuFree--
	} else {
		tt.cpuFree--
	}
	// Fault injection: the plan decides per (task, attempt, device) whether
	// this attempt fails partway; the driver reports the failure and the
	// JobTracker reschedules the task (paper §5.1).
	failed := e.plan.AttemptFails(split, attemptID, onGPU)
	duration := attempt.Duration * tt.slowdown(e.eng.Now())
	if failed {
		duration *= 0.5 // detected mid-task
	}
	if len(e.runs) == 0 {
		e.runs = make([]attemptRun, len(e.splitDone))
	}
	run := &e.runs[0]
	e.runs = e.runs[1:]
	*run = attemptRun{
		e: e, split: split, attemptID: attemptID, tt: tt, onGPU: onGPU, speculative: speculative,
		failed: failed, duration: duration, end: e.eng.Now(), attempt: attempt,
	}
	if duration > 0 { // a negative duration completes at once, as sim.After clamps it
		run.end += sim.Time(duration)
	}
	e.attempts[split] = append(e.attempts[split], run)
	run.ev = e.eng.At(run.end, run)
}

// finishAttempt is a map attempt's completion event.
func (e *engine) finishAttempt(run *attemptRun) {
	split, tt, onGPU, speculative, duration := run.split, run.tt, run.onGPU, run.speculative, run.duration
	attempt := run.attempt
	run.attempt = MapAttempt{} // the chunk outlives the attempt; drop its output
	if onGPU {
		tt.gpuFree++
	} else {
		tt.cpuFree++
	}
	e.dropAttempt(run)
	switch {
	case e.splitDone[split]:
		// A sibling attempt already finished; nothing to record.
		e.recordMapSpan(tt, split, onGPU, speculative, duration, "lost")
	case run.failed:
		e.attemptFailed(run, run.attemptID, duration)
	default:
		e.splitDone[split] = true
		if speculative {
			e.stats.SpeculativeWon++
			e.met.specWon.Inc()
		}
		// Kill the losing sibling attempts and free their slots
		// (Hadoop kills the slower attempt when one commits).
		for _, o := range e.attempts[split] {
			o.ev.Cancel()
			if o.onGPU {
				o.tt.gpuFree++
			} else {
				o.tt.cpuFree++
			}
			e.drainGPUQueue(o.tt)
		}
		clear(e.attempts[split])
		e.attempts[split] = e.attempts[split][:0]
		e.commitAttempt[split] = run.attemptID
		e.completeMap(tt, split, onGPU, speculative, duration, attempt)
	}
	e.drainGPUQueue(tt)
}

// attemptFailed handles an injected attempt failure: retry accounting, GPU
// demotion, the per-task attempt cap, and node blacklisting.
func (e *engine) attemptFailed(run *attemptRun, attemptID int, duration float64) {
	split, tt := run.split, run.tt
	e.stats.FailedAttempts++
	e.failCount[split]++
	var cause error = faults.ErrInjected
	if run.onGPU {
		e.stats.Retries++
		e.met.retries.Inc()
		e.met.failInjGPU.Inc()
		e.gpuDemoted[split] = true
		cause = &gpurt.AbortError{Kernel: "map", Cause: faults.ErrInjected}
	} else {
		e.met.failInjCPU.Inc()
	}
	e.recordMapSpan(tt, split, run.onGPU, run.speculative, duration, "failed")
	e.trace.Instant(obs.CatFault, "attempt-fail", e.eng.Now(), tt.node, laneHeartbeat,
		obs.Int("split", split), obs.Int("attempt", attemptID))
	if e.failCount[split] >= e.cfg.MaxTaskAttempts {
		e.fail(&JobFailure{
			Kind:     FailTaskAttemptsExhausted,
			Task:     split,
			Node:     tt.node,
			Attempts: e.failCount[split],
			Cause:    cause,
		})
		return
	}
	e.noteNodeFailure(tt)
	if len(e.attempts[split]) == 0 {
		e.jt.requeue(split)
	}
}

// noteNodeFailure counts a task failure against the node and blacklists it
// with exponential backoff once it accumulates nodeFailureLimit of them.
func (e *engine) noteNodeFailure(tt *taskTracker) {
	tt.failures++
	if tt.failures < nodeFailureLimit {
		return
	}
	tt.failures = 0
	backoff := 4 * e.cfg.HeartbeatSec
	for i := 0; i < tt.blacklists; i++ {
		backoff *= 2
	}
	tt.blacklists++
	tt.blacklisted = e.eng.Now() + sim.Time(backoff)
	e.stats.NodeBlacklists++
	e.met.blacklists.Inc()
	e.trace.Instant(obs.CatRecovery, "node-blacklisted", e.eng.Now(), tt.node, laneHeartbeat,
		obs.Float("backoff", backoff))
}

// recordMapSpan emits one map attempt's trace span, placed backwards from
// the current (completion) time.
func (e *engine) recordMapSpan(tt *taskTracker, split int, onGPU, speculative bool, duration float64, state string) {
	if e.trace == nil {
		return
	}
	cat := obs.CatMapCPU
	lane := laneCPU
	if onGPU {
		cat = obs.CatMapGPU
		lane = laneGPU
	}
	if speculative {
		cat = obs.CatSpeculative
	}
	end := e.eng.Now()
	begin := end - sim.Time(duration)
	e.trace.Span(cat, "map-"+strconv.Itoa(split), begin, end, tt.node, lane,
		obs.Int("split", split), obs.Str("state", state))
}

// dropAttempt removes a finished attempt from its split's list.
func (e *engine) dropAttempt(run *attemptRun) {
	runs := e.attempts[run.split]
	for i, o := range runs {
		if o == run {
			copy(runs[i:], runs[i+1:])
			runs[len(runs)-1] = nil
			e.attempts[run.split] = runs[:len(runs)-1]
			return
		}
	}
}

// drainGPUQueue starts a queued forced-GPU task if a slot is free.
func (e *engine) drainGPUQueue(tt *taskTracker) {
	if !tt.alive || tt.deadDeclared {
		// declareDead flushes the queue; don't start work on a dead node.
		return
	}
	if tt.gpuFree > 0 && len(tt.gpuQueue) > 0 {
		next := tt.gpuQueue[0]
		tt.gpuQueue = tt.gpuQueue[1:]
		now := e.eng.Now()
		wait := float64(now - next.at)
		e.stats.GPUQueueWaitSec += wait
		e.met.queueDepth.Add(-1)
		e.met.queueWait.Add(wait)
		if wait > 0 {
			e.trace.Span(obs.CatGPUQueueWait, "queue-"+strconv.Itoa(next.split), next.at, now,
				tt.node, laneGPUQueue, obs.Int("split", next.split))
		}
		e.startMap(tt, next.split, true)
	}
}

// trySpeculate launches one backup attempt on an idle CPU slot of tt when
// the pending queue is empty and a running task would finish later than a
// fresh local run would (the speculative-execution extension).
func (e *engine) trySpeculate(tt *taskTracker) {
	if tt.cpuFree <= 0 {
		return
	}
	now := float64(e.eng.Now())
	var best int = -1
	var bestGain float64
	for split := 0; split < len(e.splitDone); split++ {
		if e.splitDone[split] || e.speculated[split] || len(e.attempts[split]) == 0 {
			continue
		}
		est, err := e.exec.MapTask(split, false, tt.node)
		if err != nil {
			continue
		}
		origEnd := float64(e.attempts[split][0].end)
		backupEnd := now + est.Duration
		gain := origEnd - backupEnd
		if gain > 0.2*est.Duration && gain > bestGain {
			best = split
			bestGain = gain
		}
	}
	if best >= 0 {
		e.speculated[best] = true
		e.stats.SpeculativeLaunched++
		e.met.specLaunched.Inc()
		e.startAttempt(tt, best, false, true)
	}
}

func (e *engine) completeMap(tt *taskTracker, split int, onGPU, speculative bool, duration float64, attempt MapAttempt) {
	jt := e.jt
	jt.mapResults[split] = attempt
	e.mapHost[split] = tt.node
	jt.fetchReports[split] = 0 // a fresh commit clears stale reports
	jt.mapsDone++
	jt.lastMapDone = e.eng.Now()
	if attempt.SkippedRecords > 0 {
		// Set, not add: a re-executed map re-reads the same poisoned
		// records, so its skips replace the previous commit's.
		e.skippedBy[split] = attempt.SkippedRecords
		e.trace.Instant(obs.CatRecovery, "records-skipped", e.eng.Now(), tt.node, laneHeartbeat,
			obs.Int("split", split), obs.Int("skipped", attempt.SkippedRecords))
		total := 0
		for _, n := range e.skippedBy {
			total += n
		}
		if total > e.cfg.MaxSkippedRecords {
			e.fail(&JobFailure{
				Kind:     FailSkipLimitExceeded,
				Task:     split,
				Node:     tt.node,
				Attempts: total,
				Cause:    faults.ErrBadRecord,
			})
			return
		}
	}
	tt.observe(duration, onGPU)
	e.recordMapSpan(tt, split, onGPU, speculative, duration, "won")
	if onGPU {
		e.stats.MapsOnGPU++
		e.gpuDurSum += duration
		e.gpuDurN++
		e.met.mapDurGPU.Observe(duration)
		if attempt.GPU != nil {
			e.recordKernelDetail(tt, duration, attempt.GPU)
		}
	} else {
		e.stats.MapsOnCPU++
		e.cpuDurSum += duration
		e.cpuDurN++
		e.met.mapDurCPU.Observe(duration)
	}
	if jt.mapsDone == jt.totalMaps {
		e.stats.MapPhaseEnd = float64(e.eng.Now())
		if jt.totalReduces == 0 {
			e.finishJob()
		}
		// Reducers still shuffling are released by their own scheduling
		// below (launchReduce waits on lastMapDone via the maps-done gate).
		e.hintReduces()
	}
}

// hintReduces prefetches the reduce work for every partition that has not
// yet collected its inputs, now that a full set of committed map outputs
// exists. Called each time mapsDone reaches totalMaps (including after
// map-output-loss recovery recommits), so a superseding hint always
// carries the current partition slices; the executor validates slice
// identity at consume time regardless.
func (e *engine) hintReduces() {
	if e.pre == nil {
		return
	}
	for p := 0; p < e.jt.totalReduces; p++ {
		if e.jt.reduceFetched[p] {
			continue
		}
		e.pre.PrefetchReduce(p, e.reduceInputs(p))
	}
}

// recordKernelDetail emits kernel sub-spans inside a winning GPU attempt
// (placed by the Figure-6 stage offsets) and folds the profiles into the
// metrics registry.
func (e *engine) recordKernelDetail(tt *taskTracker, duration float64, d *GPUAttemptDetail) {
	e.met.registry.RecordKernelProfiles(d.Profiles)
	if e.trace == nil {
		return
	}
	begin := float64(e.eng.Now()) - duration
	cursor := begin + d.Stages.InputRead + d.Stages.InputCopy
	for i := range d.Profiles {
		p := &d.Profiles[i]
		attrs := []obs.Attr{
			obs.Float("cycles", p.TotalCycles()),
		}
		if p.Blocks > 0 {
			attrs = append(attrs,
				obs.Int("blocks", p.Blocks),
				obs.Float("occupancy", p.Occupancy),
				obs.Float("skew", p.StragglerSkew))
		}
		if p.Steals > 0 {
			attrs = append(attrs, obs.Int("steals", int(p.Steals)))
		}
		e.trace.Span(obs.CatKernel, p.Kernel, sim.Time(cursor), sim.Time(cursor+p.Seconds),
			tt.node, laneGPU, attrs...)
		cursor += p.Seconds
	}
}

// launchReduce models one reduce task: shuffle overlaps the map phase, and
// the task finishes compute-time after both its shuffle and the last map
// are done. Each map output is fetched with checksum verification; failed
// or corrupt fetches retry with capped exponential backoff and report to
// the JobTracker, which declares the output lost — re-executing the map —
// once enough reports accumulate (Hadoop "too many fetch failures").
func (e *engine) launchReduce(tt *taskTracker, p int) {
	assign := e.eng.Now()
	run := &reduceRun{p: p, tt: tt}
	e.reduceRuns[p] = run
	// The reduce executes functionally when all map inputs exist; defer
	// the work until the map phase completes by polling on map completion
	// via a gate event. The same poll covers outputs re-executing after
	// fetch-failure declarations mid-shuffle.
	var gate sim.Func
	gate = func() {
		if e.err != nil || e.reduceRuns[p] != run {
			// Superseded: the attempt was canceled after its host died.
			return
		}
		if e.jt.mapsDone < e.jt.totalMaps {
			run.ev = e.eng.After(sim.Duration(e.cfg.HeartbeatSec), gate)
			return
		}
		// Fetch each committed map output in order, verifying checksums.
		// The clean path completes every fetch instantly within this event;
		// only failures consume virtual time (backoff) or defer to the gate
		// poll (output re-executing).
		for run.next < e.jt.totalMaps {
			m := run.next
			if !e.splitDone[m] {
				// Declared lost after an earlier report; wait for recommit.
				run.ev = e.eng.After(sim.Duration(e.cfg.HeartbeatSec), gate)
				return
			}
			att := run.tries
			run.tries++
			if att > 0 {
				e.stats.Refetches++
				e.met.refetches.Inc()
			}
			failed := e.plan.FetchFails(m, p, att)
			corrupt := false
			if !failed {
				corrupt = e.verifyFetch(p, m)
			}
			if !failed && !corrupt {
				run.next++
				run.tries = 0
				run.burst = 0
				continue
			}
			e.stats.FetchFailures++
			e.met.fetchFails.Inc()
			name := "fetch-fail"
			if corrupt {
				name = "corrupt-partition"
				e.stats.CorruptPartitions++
				e.met.corruptParts.Inc()
			}
			e.trace.Instant(obs.CatFault, name, e.eng.Now(), tt.node, laneHeartbeat,
				obs.Int("map", m), obs.Int("partition", p), obs.Int("attempt", att))
			run.burst++
			if run.burst >= fetchRetries {
				run.burst = 0
				e.reportFetchFailure(run, m)
				if e.err != nil {
					return
				}
			}
			// Capped exponential backoff before the retry.
			backoff := e.cfg.HeartbeatSec / 4
			for i := 0; i < att && i < 5; i++ {
				backoff *= 2
			}
			run.ev = e.eng.After(sim.Duration(backoff), gate)
			return
		}
		e.jt.reduceFetched[p] = true
		work, err := e.exec.ReduceTask(p, e.reduceInputs(p))
		if err != nil {
			e.fail(fmt.Errorf("mr: reduce task %d: %w", p, err))
			return
		}
		// Shuffle ran concurrently with maps from assignment; only the
		// residual after the last map blocks the reducer.
		shuffleDone := float64(assign) + work.ShuffleTime
		if tail := float64(e.jt.lastMapDone) + 0.1*work.ShuffleTime; tail > shuffleDone {
			shuffleDone = tail
		}
		now := float64(e.eng.Now())
		if shuffleDone < now {
			shuffleDone = now
		}
		if resid := shuffleDone - float64(e.jt.lastMapDone); resid > 0 {
			e.stats.ShuffleResidualSec += resid
			e.met.shuffleResid.Add(resid)
		}
		lane := laneReduceBase + p
		e.trace.NameTrack(tt.node, lane, "node"+strconv.Itoa(tt.node), "reduce-"+strconv.Itoa(p))
		e.trace.Span(obs.CatShuffle, "shuffle-"+strconv.Itoa(p), assign, sim.Time(shuffleDone),
			tt.node, lane, obs.Int("partition", p))
		e.trace.Span(obs.CatReduce, "reduce-"+strconv.Itoa(p), sim.Time(shuffleDone),
			sim.Time(shuffleDone+work.ComputeTime), tt.node, lane, obs.Int("partition", p))
		run.ev = e.eng.At(sim.Time(shuffleDone+work.ComputeTime), sim.Func(func() {
			if e.reduceRuns[p] != run {
				return
			}
			delete(e.reduceRuns, p)
			tt.redFree++
			e.jt.reduceOut[p] = work.Output
			e.jt.reducesDone++
			if e.jt.done() {
				e.finishJob()
			}
		}))
	}
	gate()
}

// reduceInputs collects partition p of every committed map output, in
// split order, for the reducer; nil when no map output has partitions
// (timing-only executors), so nothing is built that nothing reads.
func (e *engine) reduceInputs(p int) [][]kv.Pair {
	results := e.jt.mapResults
	n := 0
	for i := range results {
		if p < len(results[i].Partitions) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	inputs := make([][]kv.Pair, 0, n)
	for i := range results {
		if p < len(results[i].Partitions) {
			inputs = append(inputs, results[i].Partitions[p])
		}
	}
	return inputs
}

// verifyFetch checks partition p of map m's committed output on fetch:
// first the plan's deterministic corruption draw (keyed by the committed
// attempt id, so a re-executed map draws fresh), then the real checksum —
// the executor recomputes the partition's CRC and compares it against the
// sum stored at commit time (checksum-on-write + verify-on-fetch).
func (e *engine) verifyFetch(p, m int) bool {
	res := &e.jt.mapResults[m]
	if e.plan.PartitionCorrupt(m, e.commitAttempt[m], p) {
		return true
	}
	if e.summer == nil || res.PartitionSums == nil || p >= len(res.PartitionSums) {
		return false
	}
	var part []kv.Pair
	if p < len(res.Partitions) {
		part = res.Partitions[p]
	}
	return e.summer.PartitionSum(part) != res.PartitionSums[p]
}

// reportFetchFailure delivers one reducer's fetch-failure notification for
// map m to the JobTracker. At fetchFailureNotices notifications the output
// is declared lost: the map re-executes (through the PR-4 recovery path)
// and the serving node takes a failure toward blacklisting. A permanently
// corrupt task exhausts MaxTaskAttempts and fails the job.
func (e *engine) reportFetchFailure(run *reduceRun, m int) {
	if !e.splitDone[m] {
		return // already declared lost by another reducer's report
	}
	jt := e.jt
	jt.fetchReports[m]++
	e.trace.Instant(obs.CatRecovery, "fetch-failure-report", e.eng.Now(), run.tt.node, laneHeartbeat,
		obs.Int("map", m), obs.Int("partition", run.p), obs.Int("reports", jt.fetchReports[m]))
	if jt.fetchReports[m] < fetchFailureNotices {
		return
	}
	jt.fetchReports[m] = 0
	serving := e.mapHost[m]
	e.failCount[m]++
	if e.failCount[m] >= e.cfg.MaxTaskAttempts {
		e.fail(&JobFailure{
			Kind:     FailTaskAttemptsExhausted,
			Task:     m,
			Node:     serving,
			Attempts: e.failCount[m],
			Cause:    faults.ErrCorruptOutput,
		})
		return
	}
	e.splitDone[m] = false
	e.mapHost[m] = -1
	jt.mapResults[m] = MapAttempt{}
	jt.mapsDone--
	jt.requeue(m)
	e.stats.MapOutputsLost++
	e.met.outputsLost.Inc()
	e.stats.MapsReexecuted++
	e.met.mapsReexec.Inc()
	e.trace.Instant(obs.CatRecovery, "map-output-lost", e.eng.Now(), serving, laneHeartbeat,
		obs.Int("split", m), obs.Str("cause", "fetch-failures"))
	if serving >= 0 {
		e.noteNodeFailure(e.slaves[serving])
	}
}

func (e *engine) finishJob() {
	e.finish = e.eng.Now()
	e.eng.Halt()
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.eng.Halt()
}

// collectOutput assembles the job's functional output.
func (e *engine) collectOutput() {
	for _, n := range e.skippedBy {
		e.stats.RecordsSkipped += n
	}
	if e.stats.RecordsSkipped > 0 {
		e.met.recSkipped.Add(float64(e.stats.RecordsSkipped))
	}
	if e.cpuDurN > 0 {
		e.stats.MapTimeCPU = e.cpuDurSum / float64(e.cpuDurN)
	}
	if e.gpuDurN > 0 {
		e.stats.MapTimeGPU = e.gpuDurSum / float64(e.gpuDurN)
	}
	jt := e.jt
	if jt.totalReduces == 0 {
		for _, res := range jt.mapResults {
			e.stats.Output = append(e.stats.Output, res.MapOutput...)
		}
		// Map-only output files are unordered across tasks; canonicalize.
		sort.SliceStable(e.stats.Output, func(i, j int) bool {
			return kv.Compare(e.stats.Output[i].Key, e.stats.Output[j].Key) < 0
		})
		return
	}
	for _, out := range jt.reduceOut {
		e.stats.Output = append(e.stats.Output, out...)
	}
}
