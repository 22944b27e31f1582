package gpurt

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/kv"
	"repro/internal/minic"
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
func ExecCombineKernels(dev *gpu.Device, comp *compiler.Compiled, host []*interp.Object,
	store *KVStore, partitions [][]int32, opts Options) (*CombineResult, error) {

	spec := comp.Kernel
	if spec.Kind != compiler.RegionCombiner {
		return nil, fmt.Errorf("gpurt: ExecCombineKernels on a %v kernel", spec.Kind)
	}
	warpSize := dev.Config.WarpSize
	totalWarps := spec.Blocks * spec.Threads / warpSize
	if totalWarps < 1 {
		totalWarps = 1
	}
	warpsPerBlock := spec.Threads / warpSize
	if warpsPerBlock < 1 {
		warpsPerBlock = 1
	}

	shared := sharedBindings(comp, host, opts)
	res := &CombineResult{Partitions: make([][]kv.Pair, len(partitions))}
	for p, slots := range partitions {
		if len(slots) == 0 {
			continue
		}
		warps := totalWarps
		if warps > len(slots) {
			warps = len(slots)
		}
		chunk := (len(slots) + warps - 1) / warps
		var warpCycles []float64
		for w := 0; w < warps; w++ {
			lo := w * chunk
			if lo >= len(slots) {
				break
			}
			hi := lo + chunk
			if hi > len(slots) {
				hi = len(slots)
			}
			out, cycles, bd, err := runCombineWarp(dev, comp, host, shared, store, slots[lo:hi], opts)
			if err != nil {
				return nil, err
			}
			res.Partitions[p] = append(res.Partitions[p], out...)
			warpCycles = append(warpCycles, cycles)
			res.Breakdown.Add(bd)
			res.Warps++
		}
		// Group warps into blocks; a block finishes with its slowest warp.
		var blockCycles []float64
		for i := 0; i < len(warpCycles); i += warpsPerBlock {
			max := 0.0
			for j := i; j < i+warpsPerBlock && j < len(warpCycles); j++ {
				if warpCycles[j] > max {
					max = warpCycles[j]
				}
			}
			blockCycles = append(blockCycles, max)
		}
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

// combineWarp is the execution state of one warp-chunk.
type combineWarp struct {
	cost   *gpu.ThreadCost
	slots  []int32
	next   int
	output []kv.Pair
}

// runCombineWarp executes the combiner region once (warp-redundantly) over
// a chunk of a sorted partition, on one VM, returning the warp's output,
// total cycles, and per-space cycle breakdown.
func runCombineWarp(dev *gpu.Device, comp *compiler.Compiled, host []*interp.Object,
	shared []*interp.Object, store *KVStore, slots []int32, opts Options) ([]kv.Pair, float64, gpu.CycleBreakdown, error) {

	spec := comp.Kernel
	w := &combineWarp{cost: gpu.NewThreadCost(&dev.Config), slots: slots}
	w.cost.Op(32) // combineSetup

	mapSchema := store.Schema
	outSchema := comp.Schema
	m := interp.New(spec.Prog, interp.Options{
		Cost:         w.cost,
		DefaultSpace: interp.SpaceShared,
		SpaceFor: func(sym *minic.Symbol) interp.MemSpace {
			if sym.Type != nil && sym.Type.Kind == minic.TypeArray {
				return interp.SpaceShared
			}
			return interp.SpaceReg
		},
		Intrinsics: map[string]interp.Builtin{
			// getKV(&keyin, &valuein): load the next KV pair of the chunk
			// through the indirection array. Lanes load cooperatively when
			// vectorization is on.
			"getKV": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
				if len(args) != 2 {
					return interp.Value{}, fmt.Errorf("gpurt: getKV wants (keyin, valuein)")
				}
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
				chargeKVBytes(w.cost, mapSchema.SlotKeyLen(), opts.VectorCombine)
				chargeKVBytes(w.cost, mapSchema.SlotValLen(), opts.VectorCombine)
				w.cost.Op(6) // indirection fetch
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
				w.output = append(w.output, kv.Pair{Key: key, Val: val})
				chargeKVBytes(w.cost, outSchema.SlotKeyLen(), opts.VectorCombine)
				chargeKVBytes(w.cost, outSchema.SlotValLen(), opts.VectorCombine)
				w.cost.Op(8)
				return interp.Value{}, nil
			},
			"strcmpGPU": strCmpGPU(w.cost, opts.VectorCombine),
			"strcpyGPU": strCpyGPU(w.cost, opts.VectorCombine),
			"strlenGPU": strLenGPU(w.cost, opts.VectorCombine),
		},
	})
	// Private arrays of combine kernels live in shared memory (paper §4.2).
	vm, err := bytecode.NewFragmentVM(m, comp.KernelVM, privateBindings(comp, host, shared, interp.SpaceShared))
	if err != nil {
		return nil, 0, gpu.CycleBreakdown{}, fmt.Errorf("gpurt: combine kernel: %w", err)
	}
	if _, _, err := vm.Run(compiler.EntryRegion); err != nil {
		return nil, 0, gpu.CycleBreakdown{}, err
	}
	return w.output, w.cost.Cycles, w.cost.Breakdown, nil
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
