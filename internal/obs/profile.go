package obs

import "repro/internal/perf"

// SpaceCycles is one memory space's share of a kernel's cycles.
type SpaceCycles struct {
	Space  string
	Cycles float64
}

// KernelProfile is the per-kernel record the GPU runtime attaches to every
// task: where the cycles went (by memory space), how the threadblocks
// balanced, and how long the launch took. Analytic kernels (record count,
// scan, sort) carry timing but no cycle breakdown.
type KernelProfile struct {
	// Kernel names the launch: "record-count", "map", "aggregate", "sort",
	// "combine".
	Kernel string
	// Seconds is the kernel's simulated wall time.
	Seconds float64
	// Blocks is the number of threadblocks launched (0 for analytic
	// kernels).
	Blocks int
	// Occupancy is the fraction of SM-cycles doing work under the
	// list-scheduled block placement (1.0 = perfectly balanced).
	Occupancy float64
	// StragglerSkew is max-block-cycles / mean-block-cycles (1.0 = uniform
	// blocks; large values mean one block gates the kernel).
	StragglerSkew float64
	// Steals counts dynamic record grants (map kernels with stealing).
	Steals int64
	// Cycles attributes the kernel's total thread-cycles per memory space,
	// in a fixed order (op, global, coalesced, shared, constant, texture,
	// register, local, atomic-shared, atomic-global).
	Cycles []SpaceCycles
}

// TotalCycles sums the attributed cycles.
func (p *KernelProfile) TotalCycles() float64 {
	var t float64
	for _, s := range p.Cycles {
		t += s.Cycles
	}
	return t
}

// RecordKernelProfiles folds kernel profiles into the registry under the
// gpu_kernel_* families, labeled by kernel name (and memory space for the
// cycle attribution).
func (m *Registry) RecordKernelProfiles(profiles []KernelProfile) {
	if m == nil {
		return
	}
	for i := range profiles {
		p := &profiles[i]
		kl := L("kernel", p.Kernel)
		m.Counter("gpu_kernel_launches_total", "GPU kernel launches", kl).Inc()
		m.Counter("gpu_kernel_seconds_total", "Summed GPU kernel time", kl).Add(p.Seconds)
		if p.Steals > 0 {
			m.Counter("gpu_kernel_steals_total", "Dynamic record grants", kl).Add(float64(p.Steals))
		}
		if p.Blocks > 0 {
			m.Histogram("gpu_kernel_occupancy", "Per-launch SM occupancy", OccupancyBuckets, kl).Observe(p.Occupancy)
			m.Histogram("gpu_kernel_straggler_skew", "Per-launch max/mean block cycles", SkewBuckets, kl).Observe(p.StragglerSkew)
		}
		for _, sc := range p.Cycles {
			if sc.Cycles == 0 {
				continue
			}
			m.Counter("gpu_kernel_cycles_total", "GPU kernel cycles by memory space",
				kl, L("space", sc.Space)).Add(sc.Cycles)
		}
	}
}

// RecordCostProfile folds a wall-clock phase-profiler snapshot into the
// registry under the hd_prof_* families, so the phase attribution ships
// through the same metrics surface as the virtual-time counters. Every
// bucket is an engine phase, labeled cat="phase".
func (m *Registry) RecordCostProfile(snap perf.Snapshot) {
	if m == nil {
		return
	}
	for _, e := range snap.Entries() {
		labels := []Label{L("cat", "phase"), L("name", e.Name)}
		m.Counter("hd_prof_self_seconds_total", "Wall-clock self time by cost bucket", labels...).
			Add(float64(e.Nanos) / 1e9)
		m.Counter("hd_prof_calls_total", "Invocations by cost bucket", labels...).
			Add(float64(e.Count))
	}
}

// OccupancyBuckets are the fixed bounds for the occupancy histogram.
var OccupancyBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// SkewBuckets are the fixed bounds for the straggler-skew histogram.
var SkewBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10}
