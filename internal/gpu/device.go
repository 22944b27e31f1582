// Package gpu models the GPU device that HeteroDoop kernels run on: SMs,
// threadblocks, warps, the memory hierarchy (global, shared, constant,
// texture), the PCIe link to the host, and a calibrated per-access cost
// model. Kernels execute functionally (via the MiniC interpreter in
// package gpurt); this package turns their cost-event streams into
// simulated time.
package gpu

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/interp"
)

// DeviceConfig describes a GPU. Latencies are effective cycles per access
// per thread, i.e. raw latency already divided by the latency hiding that
// warp multithreading provides; this keeps the model linear in the event
// counts the interpreter produces.
type DeviceConfig struct {
	Name       string
	SMs        int
	CoresPerSM int
	WarpSize   int
	ClockGHz   float64

	GlobalMemBytes int64
	SharedMemPerSM int64

	// PCIeGBs is the host<->device copy bandwidth in GB/s.
	PCIeGBs float64
	// GlobalGBs is the device-memory bandwidth in GB/s, used for analytic
	// kernels (record counting, scan, sort data movement).
	GlobalGBs float64

	// Effective per-access costs, in cycles.
	OpCost         float64 // one scalar ALU/control op
	GlobalCost     float64 // one global-memory access (uncoalesced)
	CoalescedCost  float64 // one coalesced/vectorized global access
	TextureCost    float64 // one texture fetch (cached)
	ConstantCost   float64 // one constant-memory read
	SharedCost     float64 // one shared-memory access
	RegisterCost   float64 // one register/private scalar access
	AtomicShared   float64 // one shared-memory atomic
	AtomicGlobal   float64 // one global-memory atomic
	KernelLaunchUS float64 // fixed launch overhead in microseconds
}

// TeslaK40 models Cluster1's Kepler-class device (one per node).
func TeslaK40() DeviceConfig {
	return DeviceConfig{
		Name:           "Tesla K40 (Kepler)",
		SMs:            15,
		CoresPerSM:     192,
		WarpSize:       32,
		ClockGHz:       0.745,
		GlobalMemBytes: 12 << 30,
		SharedMemPerSM: 48 << 10,
		PCIeGBs:        6.0,
		GlobalGBs:      288.0,
		OpCost:         1.0,
		GlobalCost:     24.0,
		CoalescedCost:  3.0,
		TextureCost:    4.0,
		ConstantCost:   1.0,
		SharedCost:     1.5,
		RegisterCost:   0.25,
		AtomicShared:   6.0,
		AtomicGlobal:   48.0,
		KernelLaunchUS: 1.5,
	}
}

// TeslaM2090 models Cluster2's Fermi-class devices (three per node).
// Fermi has slower atomics, no read-only data cache beyond texture, and
// lower bandwidth.
func TeslaM2090() DeviceConfig {
	return DeviceConfig{
		Name:           "Tesla M2090 (Fermi)",
		SMs:            16,
		CoresPerSM:     32,
		WarpSize:       32,
		ClockGHz:       0.650,
		GlobalMemBytes: 6 << 30,
		SharedMemPerSM: 48 << 10,
		PCIeGBs:        5.0,
		GlobalGBs:      177.0,
		OpCost:         2.6, // Fermi: ~half of Kepler per-thread issue rate
		GlobalCost:     30.0,
		CoalescedCost:  4.0,
		TextureCost:    5.0,
		ConstantCost:   1.2,
		SharedCost:     2.0,
		RegisterCost:   0.3,
		AtomicShared:   10.0,
		AtomicGlobal:   80.0,
		KernelLaunchUS: 2.0,
	}
}

// Validate sanity-checks a configuration.
func (c *DeviceConfig) Validate() error {
	if c.SMs <= 0 || c.WarpSize <= 0 || c.ClockGHz <= 0 {
		return fmt.Errorf("gpu: invalid device config %q: SMs=%d warp=%d clock=%v", c.Name, c.SMs, c.WarpSize, c.ClockGHz)
	}
	if c.PCIeGBs <= 0 || c.GlobalGBs <= 0 {
		return fmt.Errorf("gpu: invalid bandwidths in config %q", c.Name)
	}
	return nil
}

// CyclesToSeconds converts device cycles to seconds.
func (c *DeviceConfig) CyclesToSeconds(cycles float64) float64 {
	return cycles / (c.ClockGHz * 1e9)
}

// TransferTime returns the host<->device copy time for n bytes.
func (c *DeviceConfig) TransferTime(n int64) float64 {
	return float64(n)/(c.PCIeGBs*1e9) + c.KernelLaunchUS*1e-6
}

// AccessCost returns the per-access cycle cost for a memory space.
// Coalesced global accesses use CoalescedCost; callers that know an access
// is coalesced charge it explicitly via ThreadCost.CoalescedAccess.
func (c *DeviceConfig) AccessCost(s interp.MemSpace) float64 {
	switch s {
	case interp.SpaceGlobal:
		return c.GlobalCost
	case interp.SpaceTexture:
		return c.TextureCost
	case interp.SpaceConstant:
		return c.ConstantCost
	case interp.SpaceShared:
		return c.SharedCost
	case interp.SpaceReg:
		return c.RegisterCost
	case interp.SpaceLocal:
		return c.RegisterCost * 2
	default:
		return c.GlobalCost
	}
}

// CycleBreakdown attributes simulated cycles to the memory space (or
// operation class) that consumed them — the per-kernel profiling substrate
// behind the Figure-7 optimization analysis.
type CycleBreakdown struct {
	Op           float64 // scalar ALU/control
	Global       float64 // uncoalesced global-memory traffic
	Coalesced    float64 // coalesced/vectorized global transactions
	Shared       float64 // shared-memory accesses
	Constant     float64 // constant-memory reads
	Texture      float64 // texture fetches
	Register     float64 // register/private scalar traffic
	Local        float64 // per-thread local memory
	AtomicShared float64 // shared-memory atomics
	AtomicGlobal float64 // global-memory atomics
}

// Add accumulates another breakdown into b.
func (b *CycleBreakdown) Add(o CycleBreakdown) {
	b.Op += o.Op
	b.Global += o.Global
	b.Coalesced += o.Coalesced
	b.Shared += o.Shared
	b.Constant += o.Constant
	b.Texture += o.Texture
	b.Register += o.Register
	b.Local += o.Local
	b.AtomicShared += o.AtomicShared
	b.AtomicGlobal += o.AtomicGlobal
}

// Total sums every attributed cycle.
func (b *CycleBreakdown) Total() float64 {
	return b.Op + b.Global + b.Coalesced + b.Shared + b.Constant + b.Texture +
		b.Register + b.Local + b.AtomicShared + b.AtomicGlobal
}

// chargeSpace attributes an access's cycles to the breakdown field of its
// memory space.
func (b *CycleBreakdown) chargeSpace(s interp.MemSpace, cycles float64) {
	switch s {
	case interp.SpaceTexture:
		b.Texture += cycles
	case interp.SpaceConstant:
		b.Constant += cycles
	case interp.SpaceShared:
		b.Shared += cycles
	case interp.SpaceReg:
		b.Register += cycles
	case interp.SpaceLocal:
		b.Local += cycles
	default:
		b.Global += cycles
	}
}

// ThreadCost accumulates the simulated cycles of one GPU thread. It
// implements interp.CostSink so a thread's interpreter charges directly
// into it.
type ThreadCost struct {
	cfg    *DeviceConfig
	Cycles float64

	// Event counters for diagnostics and tests.
	Ops     int64
	Mem     int64
	Atomics int64

	// Breakdown attributes Cycles per memory space for kernel profiling.
	Breakdown CycleBreakdown
}

// NewThreadCost returns a cost accumulator for cfg.
func NewThreadCost(cfg *DeviceConfig) *ThreadCost {
	return &ThreadCost{cfg: cfg}
}

// Op implements interp.CostSink.
func (t *ThreadCost) Op(n int) {
	t.Ops += int64(n)
	c := float64(n) * t.cfg.OpCost
	t.Cycles += c
	t.Breakdown.Op += c
}

// Load implements interp.CostSink.
func (t *ThreadCost) Load(s interp.MemSpace, w int) {
	t.Mem++
	c := t.cfg.AccessCost(s)
	t.Cycles += c
	t.Breakdown.chargeSpace(s, c)
}

// Store implements interp.CostSink.
func (t *ThreadCost) Store(s interp.MemSpace, w int) {
	t.Mem++
	c := t.cfg.AccessCost(s)
	t.Cycles += c
	t.Breakdown.chargeSpace(s, c)
}

// CoalescedAccess charges n bytes moved with coalesced/vectorized
// transactions of the given width (e.g. 4 for char4).
func (t *ThreadCost) CoalescedAccess(n, width int) {
	if width < 1 {
		width = 1
	}
	transactions := (n + width - 1) / width
	t.Mem += int64(transactions)
	c := float64(transactions) * t.cfg.CoalescedCost
	t.Cycles += c
	t.Breakdown.Coalesced += c
}

// StridedAccess charges n bytes moved one element at a time
// (uncoalesced). Partial same-warp locality makes a byte access cheaper
// than a full random global transaction.
func (t *ThreadCost) StridedAccess(n int) {
	t.Mem += int64(n)
	c := float64(n) * t.cfg.GlobalCost * 0.5
	t.Cycles += c
	t.Breakdown.Global += c
}

// Atomic charges one atomic operation in the given space.
func (t *ThreadCost) Atomic(s interp.MemSpace) {
	t.Atomics++
	if s == interp.SpaceShared {
		t.Cycles += t.cfg.AtomicShared
		t.Breakdown.AtomicShared += t.cfg.AtomicShared
	} else {
		t.Cycles += t.cfg.AtomicGlobal
		t.Breakdown.AtomicGlobal += t.cfg.AtomicGlobal
	}
}

// Device is a simulated GPU instance.
type Device struct {
	Config DeviceConfig
}

// NewDevice returns a device for cfg.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{Config: cfg}, nil
}

// BlockSchedule is the profiled outcome of one block-level aggregation:
// the kernel time plus the balance diagnostics the observability layer
// attaches to kernel spans.
type BlockSchedule struct {
	Seconds float64
	// Occupancy is busy-SM-cycles / (SMs x critical-path cycles) under the
	// list schedule; 1.0 means no SM idled while the kernel ran.
	Occupancy float64
	// StragglerSkew is max-block / mean-block cycles; 1.0 means uniform
	// blocks, large values mean one straggler block gates the kernel.
	StragglerSkew float64
}

// AggregateBlocksProfile converts per-threadblock cycle totals into kernel
// time: blocks are list-scheduled (longest-processing-time-first) onto the
// SMs and the kernel finishes when the most loaded SM drains. It also
// reports occupancy and straggler diagnostics for kernel profiling.
func (d *Device) AggregateBlocksProfile(blockCycles []float64) BlockSchedule {
	if len(blockCycles) == 0 {
		return BlockSchedule{Seconds: d.Config.KernelLaunchUS * 1e-6, Occupancy: 0, StragglerSkew: 1}
	}
	sorted := append([]float64(nil), blockCycles...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	sms := make([]float64, d.Config.SMs)
	for _, bc := range sorted {
		// Assign to the least-loaded SM (ties: lowest index).
		minIdx := 0
		for i := 1; i < len(sms); i++ {
			if sms[i] < sms[minIdx] {
				minIdx = i
			}
		}
		sms[minIdx] += bc
	}
	max := 0.0
	busy := 0.0
	for _, s := range sms {
		busy += s
		if s > max {
			max = s
		}
	}
	sched := BlockSchedule{
		Seconds:       d.Config.CyclesToSeconds(max) + d.Config.KernelLaunchUS*1e-6,
		StragglerSkew: 1,
	}
	if max > 0 {
		sched.Occupancy = busy / (float64(d.Config.SMs) * max)
	}
	if mean := busy / float64(len(blockCycles)); mean > 0 {
		sched.StragglerSkew = sorted[0] / mean
	}
	return sched
}

// StreamKernelTime is the analytic time for a memory-bound kernel that
// streams n bytes through global memory with full coalescing (record
// counting, compaction moves, scan passes).
func (d *Device) StreamKernelTime(n int64, passes float64) float64 {
	return passes*float64(n)/(d.Config.GlobalGBs*1e9) + d.Config.KernelLaunchUS*1e-6
}

// ScanTime is the analytic time for a work-efficient parallel prefix scan
// over n elements of width bytes (Sengupta et al., used by the KV-pair
// aggregation step).
func (d *Device) ScanTime(n int, width int) float64 {
	if n <= 0 {
		return d.Config.KernelLaunchUS * 1e-6
	}
	bytes := int64(n) * int64(width)
	// Up-sweep + down-sweep read/write each element ~2x.
	return d.StreamKernelTime(bytes, 4)
}

// SortTime is the analytic time for the indirection-based GPU merge sort
// (Satish et al. adapted per paper §5.3) over n KV slots whose key
// comparisons touch keyBytes each. Indirection means data is never moved;
// each of the log2(n) merge passes streams the index array and reads keys
// for comparisons.
func (d *Device) SortTime(n int, keyBytes int, vectorized bool) float64 {
	if n <= 1 {
		return d.Config.KernelLaunchUS * 1e-6
	}
	passes := math.Ceil(math.Log2(float64(n)))
	keyCost := float64(keyBytes) * d.Config.GlobalCost
	if vectorized {
		keyCost = math.Ceil(float64(keyBytes)/4) * d.Config.CoalescedCost
	}
	indexCost := 2 * d.Config.CoalescedCost // read + write one index entry
	perPassCycles := float64(n) * (keyCost + indexCost)
	// The sort runs wide: divide by the device's effective parallelism.
	parallel := float64(d.Config.SMs * 2)
	if parallel < 1 {
		parallel = 1
	}
	cycles := passes * perPassCycles / parallel
	// The merge passes run back-to-back inside one persistent launch.
	return d.Config.CyclesToSeconds(cycles) + d.Config.KernelLaunchUS*1e-6
}
