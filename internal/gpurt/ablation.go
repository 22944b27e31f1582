package gpurt

import (
	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/perf"
)

// execMapKernelGlobalSteal is the stealing-granularity ablation: all
// threads of the launch pull from one device-wide record queue, paying a
// global-memory atomic per steal instead of a shared-memory one. Balance
// is perfect across blocks, but the atomic cost (and its serialization,
// modeled as contention growing with the thread count) is what the paper's
// per-threadblock design avoids.
func execMapKernelGlobalSteal(dev *gpu.Device, comp *compiler.Compiled, cap *hostCapture,
	shared map[*minic.Symbol]*interp.Object, ipObj *interp.Object,
	records []Record, store *KVStore, opts Options,
	blocks, tpb, kvBound int) (*MapKernelResult, error) {

	totalLanes := blocks * tpb
	if totalLanes > len(records) {
		totalLanes = len(records)
	}
	// The ablation executes every lane on the calling goroutine, so one
	// collector serves the whole launch.
	col := opts.Prof.Collector(perf.PhaseGPUMap)
	defer col.Flush()
	threads := make([]*mapThread, 0, totalLanes)
	for lane := 0; lane < totalLanes; lane++ {
		t, err := newMapThread(lane, dev, comp, cap, shared, ipObj, records, store, opts, col)
		if err != nil {
			return nil, err
		}
		threads = append(threads, t)
	}

	// Contention: every steal serializes on one global counter; the
	// effective per-steal cost grows with the number of threads hammering
	// it (modeled linearly, floored at the uncontended cost).
	contention := float64(totalLanes) / float64(dev.Config.WarpSize)
	if contention < 1 {
		contention = 1
	}

	var steals int64
	for rec := 0; rec < len(records); rec++ {
		pick, err := pickThread(threads, store, kvBound)
		if err != nil {
			return nil, err
		}
		for i := 0; i < int(contention); i++ {
			pick.cost.Atomic(interp.SpaceGlobal)
		}
		steals++
		if err := pick.run(rec); err != nil {
			return nil, err
		}
	}

	// Loop-exit evaluation per active thread, then group lanes into their
	// threadblocks for aggregation.
	blockCycles := make([]float64, (totalLanes+tpb-1)/tpb)
	var breakdown gpu.CycleBreakdown
	for i, t := range threads {
		if err := t.finish(); err != nil {
			return nil, err
		}
		b := i / tpb
		if t.cost.Cycles > blockCycles[b] {
			blockCycles[b] = t.cost.Cycles
		}
		breakdown.Add(t.cost.Breakdown)
	}
	sched := dev.AggregateBlocksProfile(blockCycles)
	return &MapKernelResult{
		Store:         store,
		Records:       len(records),
		Time:          sched.Seconds,
		BlockCycles:   blockCycles,
		Steals:        steals,
		Breakdown:     breakdown,
		Occupancy:     sched.Occupancy,
		StragglerSkew: sched.StragglerSkew,
	}, nil
}
