package gpurt

import (
	"fmt"

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

	spec := comp.Kernel
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
		t := &mapThread{id: lane, pending: -1, cost: gpu.NewThreadCost(&dev.Config)}
		priv, err := privateBindings(spec, cap, interp.SpaceLocal)
		if err != nil {
			return nil, err
		}
		t.machine = interp.New(spec.Prog, interp.Options{
			Cost:         t.cost,
			DefaultSpace: interp.SpaceLocal,
			SpaceFor:     threadSpaceFor,
			Prof:         col,
			Intrinsics:   mapIntrinsics(t, ipObj, records, store, comp.Schema, opts),
		})
		t.frame = t.machine.NewFrame()
		for sym, obj := range shared {
			t.frame.Bind(sym, obj)
		}
		for sym, obj := range priv {
			t.frame.Bind(sym, obj)
		}
		if err := t.bindFragmentVMs(comp.KernelCond, comp.KernelBody); err != nil {
			return nil, err
		}
		t.cost.Op(24)
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
		var pick *mapThread
		for _, t := range threads {
			if store.Remaining(t.id) < kvBound {
				continue
			}
			if pick == nil || t.cost.Cycles < pick.cost.Cycles {
				pick = t
			}
		}
		if pick == nil {
			for _, t := range threads {
				if store.Remaining(t.id) > 0 && (pick == nil || t.cost.Cycles < pick.cost.Cycles) {
					pick = t
				}
			}
			if pick == nil {
				return nil, ErrStoreOverflow
			}
		}
		for i := 0; i < int(contention); i++ {
			pick.cost.Atomic(interp.SpaceGlobal)
		}
		steals++
		pick.pending = rec
		pick.ran = true
		pick.machine.SetCost(pick.cost)
		v, err := pick.evalCond()
		if err != nil {
			return nil, err
		}
		if !v.Truthy() {
			return nil, fmt.Errorf("gpurt: map loop refused a granted record")
		}
		if err := pick.execBody(); err != nil {
			return nil, err
		}
	}

	// Loop-exit evaluation per active thread, then group lanes into their
	// threadblocks for aggregation.
	blockCycles := make([]float64, (totalLanes+tpb-1)/tpb)
	var breakdown gpu.CycleBreakdown
	for i, t := range threads {
		if t.ran {
			t.pending = -1
			if _, err := t.evalCond(); err != nil {
				return nil, err
			}
			t.cost.Op(16)
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
