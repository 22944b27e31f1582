package gpurt

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/kv"
)

// CombineResult is the outcome of the combine kernels over all partitions.
type CombineResult struct {
	// Partitions holds the combined KV pairs per reducer partition.
	Partitions [][]kv.Pair
	// Time is the summed kernel time across partitions (the host launches
	// one combine kernel per partition, Fig. 1).
	Time float64
	// Warps is the total number of warp-chunks executed.
	Warps int
	// Breakdown attributes the combined launches' thread-cycles per memory
	// space (summed over every warp of every partition).
	Breakdown gpu.CycleBreakdown
	// Blocks is the total number of threadblocks across partition launches.
	Blocks int
	// Occupancy / StragglerSkew profile the block schedules, averaged over
	// partition launches weighted by their kernel time.
	Occupancy     float64
	StragglerSkew float64
}

// ExecCombineKernels runs the translated combine kernel over each sorted
// partition. Within a partition the KV list is split into contiguous
// chunks, one per warp; every warp executes the combiner redundantly
// across its lanes (so one logical execution is charged) and lanes
// cooperate only on vectorized getKV/storeKV (paper §4.2). Splitting a
// key run across two warps yields partial combines — the relaxed
// functional equivalence the paper describes, which the reducers restore.
func ExecCombineKernels(dev *gpu.Device, comp *compiler.Compiled, host *bytecode.LaunchPoint,
	store *KVStore, partitions [][]int32, opts Options) (*CombineResult, error) {

	spec := comp.Kernel
	if spec.Kind != compiler.RegionCombiner {
		return nil, fmt.Errorf("gpurt: ExecCombineKernels on a %v kernel", spec.Kind)
	}
	totalWarps := max(spec.Blocks*spec.Threads/dev.Config.WarpSize, 1)
	warpsPerBlock := max(spec.Threads/dev.Config.WarpSize, 1)

	// Every partition's launch runs the same kernel image.
	l := newKernelLaunch(comp, host, opts, interp.SpaceShared, combineIntrinsics(store, comp.Schema, opts))
	res := &CombineResult{Partitions: make([][]kv.Pair, len(partitions))}
	for p, slots := range partitions {
		if len(slots) == 0 {
			continue
		}
		warps := min(totalWarps, len(slots))
		chunk := (len(slots) + warps - 1) / warps
		warps = (len(slots) + chunk - 1) / chunk // those a chunk is left for
		// Warps group into blocks; a block finishes with its slowest warp.
		blockCycles := make([]float64, (warps+warpsPerBlock-1)/warpsPerBlock)
		for i := 0; i < warps; i++ {
			w, err := runCombineWarp(dev, l, slots[i*chunk:min((i+1)*chunk, len(slots))])
			if err != nil {
				return nil, err
			}
			res.Partitions[p] = append(res.Partitions[p], w.output...)
			blockCycles[i/warpsPerBlock] = max(blockCycles[i/warpsPerBlock], w.Cycles)
			res.Breakdown.Add(w.Breakdown)
		}
		res.Warps += warps
		sched := dev.AggregateBlocksProfile(blockCycles)
		res.Time += sched.Seconds
		res.Blocks += len(blockCycles)
		res.Occupancy += sched.Occupancy * sched.Seconds
		res.StragglerSkew += sched.StragglerSkew * sched.Seconds
	}
	if res.Time > 0 {
		res.Occupancy /= res.Time
		res.StragglerSkew /= res.Time
	}
	return res, nil
}

// combineWarp is the execution state of one warp-chunk. It is its
// machine's cost sink, through which the launch's intrinsics find it.
type combineWarp struct {
	gpu.ThreadCost
	slots  []int32
	next   int
	output []kv.Pair
}

// runCombineWarp executes the combiner region once (warp-redundantly) over
// a chunk of a sorted partition, on one VM, and returns the warp, which
// holds its output, total cycles, and per-space cycle breakdown.
func runCombineWarp(dev *gpu.Device, l *kernelLaunch, slots []int32) (*combineWarp, error) {
	w := &combineWarp{ThreadCost: *gpu.NewThreadCost(&dev.Config), slots: slots}
	w.Op(32) // combineSetup
	vm, err := l.bind(w)
	if err != nil {
		return nil, fmt.Errorf("gpurt: combine kernel: %w", err)
	}
	if _, _, err := vm.Run(compiler.EntryRegion); err != nil {
		return nil, err
	}
	return w, nil
}

// combineIntrinsics binds the GPU runtime functions of one combine
// launch over a KV store of map output. They find the calling warp
// through their machine's cost sink.
func combineIntrinsics(store *KVStore, outSchema kv.Schema, opts Options) map[string]interp.Builtin {
	mapSchema := store.Schema
	return map[string]interp.Builtin{
		// getKV(&keyin, &valuein): load the next KV pair of the chunk
		// through the indirection array. Lanes load cooperatively when
		// vectorization is on.
		"getKV": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return interp.Value{}, fmt.Errorf("gpurt: getKV wants (keyin, valuein)")
			}
			w := m.Cost().(*combineWarp)
			if w.next >= len(w.slots) {
				return interp.IntVal(-1), nil
			}
			pair := store.SlotPair(int(w.slots[w.next]))
			w.next++
			if err := writeBack(args[0], pair.Key); err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: getKV key: %w", err)
			}
			if err := writeBack(args[1], pair.Val); err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: getKV value: %w", err)
			}
			chargeKVBytes(w, mapSchema.SlotKeyLen(), opts.VectorCombine)
			chargeKVBytes(w, mapSchema.SlotValLen(), opts.VectorCombine)
			w.Op(6) // indirection fetch
			return interp.IntVal(2), nil
		},
		// storeKV(key, value): append a combined pair to the warp's
		// output region.
		"storeKV": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return interp.Value{}, fmt.Errorf("gpurt: storeKV wants (key, value)")
			}
			key, err := valueOf(outSchema.KeyKind, args[0])
			if err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: storeKV key: %w", err)
			}
			val, err := valueOf(outSchema.ValKind, args[1])
			if err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: storeKV value: %w", err)
			}
			w := m.Cost().(*combineWarp)
			w.output = append(w.output, kv.Pair{Key: key, Val: val})
			chargeKVBytes(w, outSchema.SlotKeyLen(), opts.VectorCombine)
			chargeKVBytes(w, outSchema.SlotValLen(), opts.VectorCombine)
			w.Op(8)
			return interp.Value{}, nil
		},
		"strcmpGPU": strCmpGPU(opts.VectorCombine),
		"strcpyGPU": strCpyGPU(opts.VectorCombine),
		"strlenGPU": strLenGPU(opts.VectorCombine),
	}
}

// writeBack stores a typed KV value through a destination pointer (a char
// array for byte keys, &scalar for numeric ones).
func writeBack(dst interp.Value, v kv.Value) error {
	if dst.Kind != interp.ValPtr || !dst.P.InBounds() {
		return fmt.Errorf("destination is not a valid pointer")
	}
	switch v.Kind {
	case kv.Bytes:
		interp.WriteCString(dst.P, string(v.B))
	case kv.Int:
		dst.P.Obj.Cells[dst.P.Off] = interp.IntVal(v.I)
	case kv.Float:
		dst.P.Obj.Cells[dst.P.Off] = interp.FloatVal(v.F)
	}
	return nil
}
