// Package faults is HeteroDoop's deterministic fault-injection subsystem.
// A Plan describes everything that will go wrong during one simulated job:
// scheduled faults pinned to virtual-time instants (node crashes with or
// without restart, heartbeat loss, GPU device retirement, slowdowns) and
// probabilistic per-attempt task failures on the CPU and GPU paths.
//
// Determinism is the point. Probabilistic failure draws are keyed by
// (task, attempt, device) through a seeded hash rather than consumed from a
// shared RNG stream, so a plan's outcome for any given attempt is
// independent of scheduling order: reordering heartbeats, adding nodes, or
// changing the scheduler never silently changes which attempts fail.
// Identical plans and seeds reproduce identical fault sequences, which the
// engine turns into identical traces.
package faults

import (
	"errors"
	"fmt"
)

// Kind enumerates the fault taxonomy.
type Kind int

// Fault kinds.
const (
	// NodeCrash kills a TaskTracker process at Fault.At. Its running tasks
	// die silently and its local map outputs are lost; the JobTracker only
	// learns of the death through heartbeat expiry. RestartAfter > 0
	// restarts the tracker with a fresh identity after that delay.
	NodeCrash Kind = iota
	// HeartbeatLoss suppresses a tracker's heartbeats for Fault.Duration
	// seconds. The node keeps running but looks dead to the JobTracker,
	// which may expire it; on resume the tracker re-registers.
	HeartbeatLoss
	// GPURetire permanently retires one GPU on the node at Fault.At. A task
	// running on the retired device is aborted and falls back to the CPU
	// path.
	GPURetire
	// Slowdown multiplies the node's task durations by Fault.Factor for
	// Fault.Duration seconds (0 = for the rest of the job) — straggler
	// injection.
	Slowdown
	// TaskFail fails specific task attempts: task Fault.Task, attempt
	// Fault.Attempt (-1 = every attempt, i.e. a permanent task fault), on
	// the device class Fault.Device.
	TaskFail
	// MapOutputCorrupt silently corrupts a committed map attempt's output
	// partition on its serving node: task Fault.Task, attempt Fault.Attempt
	// (-1 = every attempt, i.e. an unrecoverable output), partition
	// Fault.Part (-1 = every partition). The corruption is only observable
	// when a reducer fetches the partition and its checksum verification
	// fails.
	MapOutputCorrupt
	// FetchFail makes a reducer's fetch of one map output partition fail
	// transiently: task Fault.Task, partition Fault.Part (-1 = every
	// partition of the task). The first Fault.Times fetch attempts fail
	// (-1 = every attempt, i.e. a permanently unfetchable output).
	FetchFail
	// InputCorrupt poisons record Fault.Record (split-relative index) of
	// input split Fault.Task. A mapper crashes on a poisoned record unless
	// the job runs in skip-bad-records mode, which drops the record and
	// accounts the skip.
	InputCorrupt
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case HeartbeatLoss:
		return "heartbeat-loss"
	case GPURetire:
		return "gpu-retire"
	case Slowdown:
		return "slowdown"
	case TaskFail:
		return "task-fail"
	case MapOutputCorrupt:
		return "map-output-corrupt"
	case FetchFail:
		return "fetch-fail"
	case InputCorrupt:
		return "input-corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a fault-kind name: both the compact call names the
// -faults spec uses (crash, hbloss, retire, slow, taskfail, corrupt,
// fetchfail, poison) and the canonical String() forms round-trip.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "crash", "node-crash":
		return NodeCrash, nil
	case "hbloss", "heartbeat-loss":
		return HeartbeatLoss, nil
	case "retire", "gpu-retire":
		return GPURetire, nil
	case "slow", "slowdown":
		return Slowdown, nil
	case "taskfail", "task-fail":
		return TaskFail, nil
	case "corrupt", "map-output-corrupt":
		return MapOutputCorrupt, nil
	case "fetchfail", "fetch-fail":
		return FetchFail, nil
	case "poison", "input-corrupt":
		return InputCorrupt, nil
	default:
		return 0, fmt.Errorf("faults: unknown fault kind %q", name)
	}
}

// Device selects which execution path a TaskFail fault hits.
type Device int

// Device classes.
const (
	AnyDevice Device = iota
	CPUDevice
	GPUDevice
)

func (d Device) String() string {
	switch d {
	case AnyDevice:
		return "any"
	case CPUDevice:
		return "cpu"
	case GPUDevice:
		return "gpu"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// ErrInjected marks a failure as injected by a fault plan (as opposed to a
// genuine executor error). It is the leaf cause inside typed abort errors.
var ErrInjected = errors.New("faults: injected failure")

// ErrBadRecord marks a task failure caused by a poisoned input record
// (InputCorrupt). It unwraps to ErrInjected.
var ErrBadRecord = fmt.Errorf("faults: poisoned input record: %w", ErrInjected)

// ErrCorruptOutput marks a map output declared lost after checksum or fetch
// failures (MapOutputCorrupt / FetchFail). It unwraps to ErrInjected.
var ErrCorruptOutput = fmt.Errorf("faults: corrupt or unfetchable map output: %w", ErrInjected)

// Fault is one scheduled fault. Which fields matter depends on Kind; see
// the Kind constants.
type Fault struct {
	Kind Kind
	// Node is the target TaskTracker (all kinds except TaskFail).
	Node int
	// At is the virtual time the fault strikes (all kinds except TaskFail).
	At float64
	// RestartAfter (NodeCrash) restarts the node this many seconds after
	// the crash; 0 means the crash is permanent.
	RestartAfter float64
	// Duration bounds HeartbeatLoss and Slowdown windows (0 for Slowdown =
	// rest of the job).
	Duration float64
	// Factor is the Slowdown duration multiplier (> 1 slows the node).
	Factor float64
	// Task / Attempt / Device target TaskFail, MapOutputCorrupt, FetchFail,
	// and InputCorrupt faults. Attempt -1 hits every attempt of the task.
	Task    int
	Attempt int
	Device  Device
	// Part is the reduce partition a MapOutputCorrupt or FetchFail fault
	// hits (-1 = every partition of the task's output).
	Part int
	// Record is the split-relative record index an InputCorrupt fault
	// poisons.
	Record int
	// Times bounds FetchFail: the first Times fetch attempts of the
	// partition fail (-1 = every attempt).
	Times int
}

// Plan is a complete fault schedule for one job run.
type Plan struct {
	// Seed keys the probabilistic attempt draws. 0 lets the engine
	// substitute the job seed.
	Seed uint64
	// CPUFailureRate / GPUFailureRate are per-attempt transient failure
	// probabilities, drawn independently per (task, attempt).
	CPUFailureRate float64
	GPUFailureRate float64
	// CorruptRate is the probability that a committed map attempt's output
	// partition is silently corrupted, drawn independently per (task,
	// attempt, partition) — re-executed attempts draw fresh, so recovery
	// converges.
	CorruptRate float64
	// FetchFailRate is the probability that one fetch attempt of a map
	// output partition fails transiently, drawn independently per (task,
	// partition, fetch attempt).
	FetchFailRate float64
	// PoisonRate is the probability that an input record is poisoned,
	// drawn independently per (task, record).
	PoisonRate float64
	// Faults are the scheduled and targeted faults.
	Faults []Fault
}

// Clone returns a deep copy (the engine normalizes plans without mutating
// the caller's).
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Faults = append([]Fault(nil), p.Faults...)
	return &q
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (p.CPUFailureRate <= 0 && p.GPUFailureRate <= 0 &&
		p.CorruptRate <= 0 && p.FetchFailRate <= 0 && p.PoisonRate <= 0 &&
		len(p.Faults) == 0)
}

// timeScheduled reports whether the kind fires at a virtual-time instant.
// The targeted data-path kinds (TaskFail, MapOutputCorrupt, FetchFail,
// InputCorrupt) strike when the engine touches the data, not at a clock
// tick.
func timeScheduled(k Kind) bool {
	switch k {
	case NodeCrash, HeartbeatLoss, GPURetire, Slowdown:
		return true
	}
	return false
}

// Scheduled returns the faults that fire at a virtual-time instant, in
// plan order. The engine installs them as simulation events; equal-time
// faults apply in plan order.
func (p *Plan) Scheduled() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if timeScheduled(f.Kind) {
			out = append(out, f)
		}
	}
	return out
}

// AttemptFails reports whether attempt number `attempt` of map task `task`
// on the given device fails. Targeted TaskFail faults are checked first;
// otherwise the per-device rate decides via a draw keyed by
// (Seed, task, attempt, device) — never by draw order.
func (p *Plan) AttemptFails(task, attempt int, onGPU bool) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind != TaskFail || f.Task != task {
			continue
		}
		if f.Attempt >= 0 && f.Attempt != attempt {
			continue
		}
		if f.Device == CPUDevice && onGPU {
			continue
		}
		if f.Device == GPUDevice && !onGPU {
			continue
		}
		return true
	}
	rate := p.CPUFailureRate
	if onGPU {
		rate = p.GPUFailureRate
	}
	if rate <= 0 {
		return false
	}
	return Draw(p.Seed, task, attempt, onGPU) < rate
}

// PartitionCorrupt reports whether partition `part` of map task `task`'s
// committed output from attempt number `attempt` is silently corrupted on
// its serving node. Targeted MapOutputCorrupt faults are checked first;
// otherwise CorruptRate decides via a draw keyed by (Seed, task, attempt,
// part) — never by draw order, so re-executed attempts draw fresh.
func (p *Plan) PartitionCorrupt(task, attempt, part int) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind != MapOutputCorrupt || f.Task != task {
			continue
		}
		if f.Attempt >= 0 && f.Attempt != attempt {
			continue
		}
		if f.Part >= 0 && f.Part != part {
			continue
		}
		return true
	}
	if p.CorruptRate <= 0 {
		return false
	}
	return keyedDraw(p.Seed, saltCorrupt, task, attempt, part) < p.CorruptRate
}

// FetchFails reports whether fetch attempt number `attempt` of map task
// `task`'s output partition `part` fails transiently. Targeted FetchFail
// faults are checked first (the first Times attempts fail); otherwise
// FetchFailRate decides via a draw keyed by (Seed, task, part, attempt).
func (p *Plan) FetchFails(task, part, attempt int) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind != FetchFail || f.Task != task {
			continue
		}
		if f.Part >= 0 && f.Part != part {
			continue
		}
		times := f.Times
		if times == 0 {
			times = 1 // zero-value Fault literals mean "fail once"
		}
		if times >= 0 && attempt >= times {
			continue
		}
		return true
	}
	if p.FetchFailRate <= 0 {
		return false
	}
	return keyedDraw(p.Seed, saltFetch, task, part, attempt) < p.FetchFailRate
}

// RecordPoisoned reports whether the split-relative record `record` of
// input split `task` is poisoned. Targeted InputCorrupt faults are checked
// first; otherwise PoisonRate decides via a draw keyed by (Seed, task,
// record).
func (p *Plan) RecordPoisoned(task, record int) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == InputCorrupt && f.Task == task && f.Record == record {
			return true
		}
	}
	if p.PoisonRate <= 0 {
		return false
	}
	return keyedDraw(p.Seed, saltPoison, task, record, 0) < p.PoisonRate
}

// Poisons reports whether the plan can poison input records at all — the
// cheap gate executors check before scanning a split's records.
func (p *Plan) Poisons() bool {
	if p == nil {
		return false
	}
	if p.PoisonRate > 0 {
		return true
	}
	for _, f := range p.Faults {
		if f.Kind == InputCorrupt {
			return true
		}
	}
	return false
}

// Domain salts keeping the data-integrity draw streams independent of the
// task-failure draws and of each other.
const (
	saltCorrupt uint64 = 0xA0761D6478BD642F
	saltFetch   uint64 = 0xE7037ED1A0B428DB
	saltPoison  uint64 = 0x8EBC6AF09C88C6E3
)

// Draw returns the uniform [0,1) variate keyed by (seed, task, attempt,
// device). Exported so tests and tools can predict plan outcomes.
func Draw(seed uint64, task, attempt int, onGPU bool) float64 {
	x := seed ^ 0x9E3779B97F4A7C15
	x = mix(x + uint64(task)*0xBF58476D1CE4E5B9)
	x = mix(x + uint64(attempt)*0x94D049BB133111EB)
	if onGPU {
		x = mix(x ^ 0xD6E8FEB86659FD93)
	} else {
		x = mix(x)
	}
	return float64(x>>11) / (1 << 53)
}

// keyedDraw is the splitmix64-keyed uniform [0,1) variate for the
// data-integrity fault streams: (seed, salt, a, b, c) fully determine the
// outcome regardless of scheduling or draw order.
func keyedDraw(seed, salt uint64, a, b, c int) float64 {
	x := seed ^ salt
	x = mix(x + uint64(a)*0xBF58476D1CE4E5B9)
	x = mix(x + uint64(b)*0x94D049BB133111EB)
	x = mix(x + uint64(c)*0x9E3779B97F4A7C15)
	return float64(x>>11) / (1 << 53)
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Validate checks the plan against a cluster size.
func (p *Plan) Validate(slaves int) error {
	if p == nil {
		return nil
	}
	if p.CPUFailureRate < 0 || p.CPUFailureRate >= 1 {
		return fmt.Errorf("faults: CPU failure rate %v outside [0,1)", p.CPUFailureRate)
	}
	if p.GPUFailureRate < 0 || p.GPUFailureRate >= 1 {
		return fmt.Errorf("faults: GPU failure rate %v outside [0,1)", p.GPUFailureRate)
	}
	if p.CorruptRate < 0 || p.CorruptRate >= 1 {
		return fmt.Errorf("faults: corruption rate %v outside [0,1)", p.CorruptRate)
	}
	if p.FetchFailRate < 0 || p.FetchFailRate >= 1 {
		return fmt.Errorf("faults: fetch failure rate %v outside [0,1)", p.FetchFailRate)
	}
	if p.PoisonRate < 0 || p.PoisonRate >= 1 {
		return fmt.Errorf("faults: poison rate %v outside [0,1)", p.PoisonRate)
	}
	for i, f := range p.Faults {
		if !timeScheduled(f.Kind) {
			if f.Task < 0 {
				return fmt.Errorf("faults: fault %d: %v needs a task", i, f.Kind)
			}
			if f.Kind == InputCorrupt && f.Record < 0 {
				return fmt.Errorf("faults: fault %d: input-corrupt needs a record", i)
			}
			continue
		}
		if f.Node < 0 || f.Node >= slaves {
			return fmt.Errorf("faults: fault %d (%v): node %d outside cluster of %d", i, f.Kind, f.Node, slaves)
		}
		if f.At < 0 {
			return fmt.Errorf("faults: fault %d (%v): negative time %v", i, f.Kind, f.At)
		}
		switch f.Kind {
		case HeartbeatLoss:
			if f.Duration <= 0 {
				return fmt.Errorf("faults: fault %d: heartbeat loss needs a positive duration", i)
			}
		case Slowdown:
			if f.Factor <= 0 {
				return fmt.Errorf("faults: fault %d: slowdown needs a positive factor", i)
			}
		case NodeCrash:
			if f.RestartAfter < 0 {
				return fmt.Errorf("faults: fault %d: negative restart delay", i)
			}
		}
	}
	return nil
}
