package gpurt

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/kv"
	"repro/internal/minic"
)

// Options toggles the compiler/runtime optimizations evaluated in the
// paper's Figure 7. The translated baseline has all of them off; the full
// system has all of them on.
type Options struct {
	// UseTexture honors texture clauses (Fig. 7a); off places those arrays
	// in global memory.
	UseTexture bool
	// VectorMap enables char4-style vectorized KV emission and string ops
	// in map kernels (Fig. 7c).
	VectorMap bool
	// VectorCombine enables vectorized getKV/storeKV and string ops in
	// combine kernels (Fig. 7b).
	VectorCombine bool
	// RecordStealing enables dynamic per-threadblock record distribution
	// (Fig. 7d); off statically partitions records across threads.
	RecordStealing bool
	// GlobalStealing switches stealing to a single device-wide record
	// queue guarded by a global-memory atomic — the design alternative the
	// paper rejects (§4.1: global atomics are expensive). Requires
	// RecordStealing; exposed for the stealing-granularity ablation.
	GlobalStealing bool
	// Aggregation compacts KV-store whitespace before sorting (Fig. 7e).
	Aggregation bool
}

// AllOptimizations returns the fully optimized configuration.
func AllOptimizations() Options {
	return Options{UseTexture: true, VectorMap: true, VectorCombine: true, RecordStealing: true, Aggregation: true}
}

// Baseline returns the translated-but-unoptimized configuration (the
// "base" bars of Fig. 5).
func Baseline() Options { return Options{} }

// captureHost captures the host-side state of a translated program at its
// kernel launch point: the paper's generated host code reaches the region
// with all firstprivate/sharedRO values computed; we capture them by
// running the kernel program's host part (<init>, then main) on the VM up
// to the region. It returns the host's object for each free symbol of the
// kernel program, indexed by kernel slot (bytecode.Program.Free).
func captureHost(comp *compiler.Compiled, stdout io.Writer) ([]*interp.Object, error) {
	m := interp.New(comp.Kernel.Prog, interp.Options{Stdout: stdout})
	objs, err := bytecode.NewVM(m, comp.KernelVM).Launch()
	if err != nil {
		return nil, fmt.Errorf("gpurt: host program failed: %w", err)
	}
	if objs == nil {
		return nil, fmt.Errorf("gpurt: host program never reached its mapreduce region")
	}
	return objs, nil
}

// sharedBindings builds the objects shared by all threads, indexed by
// kernel slot: sharedRO scalars (constant memory) and arrays (global or
// texture).
func sharedBindings(comp *compiler.Compiled, host []*interp.Object, opts Options) []*interp.Object {
	out := make([]*interp.Object, len(host))
	for _, f := range comp.KernelVM.Free {
		var space interp.MemSpace
		switch comp.Kernel.Plan[f.Sym] {
		case compiler.ClassROScalar:
			space = interp.SpaceConstant
		case compiler.ClassROArray:
			space = interp.SpaceGlobal
		case compiler.ClassTexture:
			if opts.UseTexture {
				space = interp.SpaceTexture
			} else {
				space = interp.SpaceGlobal
			}
		default:
			continue
		}
		// Retag the host object's storage with the device space; the data
		// itself was cudaMemcpy'd in (cells are shared, read-only).
		h := host[f.Slot]
		out[f.Slot] = &interp.Object{Cells: h.Cells, Elem: h.Elem, Space: space, Name: h.Name}
	}
	return out
}

// privateBindings builds one thread's (or warp's) kernel slots: the
// launch's shared objects, plus fresh private and firstprivate objects.
// arraySpace is SpaceLocal for map kernels and SpaceShared for combine
// kernels (paper §4.2 places combiner private arrays in shared memory).
func privateBindings(comp *compiler.Compiled, host, shared []*interp.Object, arraySpace interp.MemSpace) []*interp.Object {
	out := make([]*interp.Object, len(shared))
	copy(out, shared)
	for _, f := range comp.KernelVM.Free {
		cls := comp.Kernel.Plan[f.Sym]
		if cls != compiler.ClassPrivate && cls != compiler.ClassFirstPrivate {
			continue
		}
		h := host[f.Slot]
		space := interp.SpaceReg
		if len(h.Cells) > 1 {
			space = arraySpace
		}
		obj := interp.NewObject(f.Sym.Name, h.Elem, len(h.Cells), space)
		if cls == compiler.ClassFirstPrivate {
			copy(obj.Cells, h.Cells)
		}
		out[f.Slot] = obj
	}
	return out
}

// threadSpaceFor places region-local declarations: arrays in local memory,
// scalars in registers.
func threadSpaceFor(sym *minic.Symbol) interp.MemSpace {
	if sym.Type != nil && sym.Type.Kind == minic.TypeArray {
		return interp.SpaceLocal
	}
	return interp.SpaceReg
}

// mapThread is one simulated GPU thread of the map kernel.
type mapThread struct {
	id   int // global thread id (block*threadsPerBlock + lane)
	cost *gpu.ThreadCost
	// vm runs the kernel program's condition and body entries.
	vm      *bytecode.FragmentVM
	pending int // granted record index, -1 = none
	ran     bool
}

// newMapThread builds map thread id of a launch: its machine with the GPU
// map intrinsics over records, fresh private copies of the host objects,
// and one VM for the kernel program. It charges the mapSetup overhead.
func newMapThread(id int, dev *gpu.Device, comp *compiler.Compiled, host []*interp.Object,
	shared []*interp.Object, ipObj *interp.Object,
	records []Record, store *KVStore, opts Options) (*mapThread, error) {

	t := &mapThread{id: id, pending: -1, cost: gpu.NewThreadCost(&dev.Config)}
	m := interp.New(comp.Kernel.Prog, interp.Options{
		Cost:         t.cost,
		DefaultSpace: interp.SpaceLocal,
		SpaceFor:     threadSpaceFor,
		Intrinsics:   mapIntrinsics(t, ipObj, records, store, comp.Schema, opts),
	})
	var err error
	if t.vm, err = bytecode.NewFragmentVM(m, comp.KernelVM, privateBindings(comp, host, shared, interp.SpaceLocal)); err != nil {
		return nil, fmt.Errorf("gpurt: map kernel: %w", err)
	}
	t.cost.Op(24) // mapSetup overhead
	return t, nil
}

// pickThread returns the thread that steals the next record: the
// least-loaded thread with at least kvBound free store slots, a
// deterministic stand-in for the atomic counter race (the least-loaded
// thread reaches the counter first). When every thread is below the bound
// it falls back to the least-loaded thread with any residual space before
// declaring overflow.
func pickThread(threads []*mapThread, store *KVStore, kvBound int) (*mapThread, error) {
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
	return pick, nil
}

// run executes one iteration of the region loop on granted record rec.
func (t *mapThread) run(rec int) error {
	t.pending = rec
	t.ran = true
	v, _, err := t.vm.Run(compiler.EntryCond)
	if err != nil {
		return err
	}
	if !v.Truthy() {
		return fmt.Errorf("gpurt: map loop refused a granted record")
	}
	_, _, err = t.vm.Run(compiler.EntryBody)
	return err
}

// finish runs the final loop-condition evaluation of a thread that ran:
// getRecord returns -1 and the user loop exits, assigning read = -1 as the
// real kernel would.
func (t *mapThread) finish() error {
	if !t.ran {
		return nil
	}
	t.pending = -1
	if _, _, err := t.vm.Run(compiler.EntryCond); err != nil {
		return err
	}
	t.cost.Op(16) // mapFinish bookkeeping
	return nil
}

// MapKernelResult is the outcome of one map kernel launch.
type MapKernelResult struct {
	Store       *KVStore
	Records     int
	Time        float64 // kernel time in seconds
	BlockCycles []float64
	Steals      int64
	// Breakdown attributes the launch's total thread-cycles per memory
	// space (summed over every thread of every block).
	Breakdown gpu.CycleBreakdown
	// Occupancy / StragglerSkew profile the block schedule (see
	// gpu.BlockSchedule).
	Occupancy     float64
	StragglerSkew float64
}

// ExecMapKernel runs the translated map kernel over the located records,
// filling the KV store. Records are statically split across threadblocks;
// threads within a block steal records dynamically (paper §4.1) when
// opts.RecordStealing is on, emulated deterministically by always granting
// the next record to the least-loaded thread — the thread that would reach
// the shared-memory counter first.
func ExecMapKernel(dev *gpu.Device, comp *compiler.Compiled, host []*interp.Object,
	input []byte, records []Record, store *KVStore, opts Options) (*MapKernelResult, error) {

	spec := comp.Kernel
	if spec.Kind != compiler.RegionMapper {
		return nil, fmt.Errorf("gpurt: ExecMapKernel on a %v kernel", spec.Kind)
	}
	shared := sharedBindings(comp, host, opts)
	// The input fileSplit lives in device global memory.
	ipObj := interp.NewObject("ip", minic.CharType, len(input)+1, interp.SpaceGlobal)
	for i, b := range input {
		ipObj.Cells[i] = interp.IntVal(int64(b))
	}

	blocks := spec.Blocks
	tpb := spec.Threads
	if store.NumThreads != blocks*tpb {
		return nil, fmt.Errorf("gpurt: store geometry %d != launch %dx%d", store.NumThreads, blocks, tpb)
	}
	kvBound := spec.KVPairs
	if kvBound <= 0 {
		kvBound = 1
	}

	if opts.RecordStealing && opts.GlobalStealing {
		return execMapKernelGlobalSteal(dev, comp, host, shared, ipObj, records, store, opts, blocks, tpb, kvBound)
	}

	perBlock := (len(records) + blocks - 1) / blocks
	blockCycles := make([]float64, blocks)
	blockErrs := make([]error, blocks)
	blockSteals := make([]int64, blocks)
	blockBreakdowns := make([]gpu.CycleBreakdown, blocks)

	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		lo := b * perBlock
		if lo >= len(records) {
			break
		}
		hi := lo + perBlock
		if hi > len(records) {
			hi = len(records)
		}
		wg.Add(1)
		//detlint:ignore bare-goroutine: each block writes only its own slots, and the results merge in block order
		go func(b, lo, hi int) {
			defer wg.Done()
			cycles, bd, steals, err := runMapBlock(dev, comp, host, shared, ipObj, records[lo:hi], store, opts, b, tpb, kvBound)
			blockCycles[b] = cycles
			blockSteals[b] = steals
			blockBreakdowns[b] = bd
			blockErrs[b] = err
		}(b, lo, hi)
	}
	wg.Wait()
	for _, err := range blockErrs {
		if err != nil {
			return nil, err
		}
	}
	var steals int64
	var breakdown gpu.CycleBreakdown
	for b, s := range blockSteals {
		steals += s
		breakdown.Add(blockBreakdowns[b])
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

// runMapBlock executes one threadblock's share of the records and returns
// its total cycles (the max over its threads) plus the block's summed
// per-space cycle breakdown.
func runMapBlock(dev *gpu.Device, comp *compiler.Compiled, host []*interp.Object,
	shared []*interp.Object, ipObj *interp.Object,
	records []Record, store *KVStore, opts Options,
	block, tpb, kvBound int) (float64, gpu.CycleBreakdown, int64, error) {

	threads := make([]*mapThread, 0, tpb)
	lanes := tpb
	if lanes > len(records) {
		lanes = len(records)
	}
	for lane := 0; lane < lanes; lane++ {
		t, err := newMapThread(block*tpb+lane, dev, comp, host, shared, ipObj, records, store, opts)
		if err != nil {
			return 0, gpu.CycleBreakdown{}, 0, err
		}
		threads = append(threads, t)
	}

	var steals int64
	if opts.RecordStealing {
		// Dynamic distribution through the shared-memory record counter.
		for rec := 0; rec < len(records); rec++ {
			pick, err := pickThread(threads, store, kvBound)
			if err != nil {
				return 0, gpu.CycleBreakdown{}, 0, err
			}
			pick.cost.Atomic(interp.SpaceShared) // recordIndex counter
			steals++
			if err := pick.run(rec); err != nil {
				return 0, gpu.CycleBreakdown{}, 0, err
			}
		}
	} else {
		// Static partitioning: record i goes to lane i % lanes.
		for rec := 0; rec < len(records); rec++ {
			if err := threads[rec%lanes].run(rec); err != nil {
				return 0, gpu.CycleBreakdown{}, 0, err
			}
		}
	}

	maxCycles := 0.0
	var breakdown gpu.CycleBreakdown
	for _, t := range threads {
		if err := t.finish(); err != nil {
			return 0, gpu.CycleBreakdown{}, 0, err
		}
		if t.cost.Cycles > maxCycles {
			maxCycles = t.cost.Cycles
		}
		breakdown.Add(t.cost.Breakdown)
	}
	return maxCycles, breakdown, steals, nil
}

// mapIntrinsics binds the GPU runtime functions for one map thread.
func mapIntrinsics(t *mapThread, ipObj *interp.Object, records []Record,
	store *KVStore, schema kv.Schema, opts Options) map[string]interp.Builtin {

	return map[string]interp.Builtin{
		// getRecord(&line): point *line at the granted record inside the
		// input buffer and return its length, or -1 when the thread has no
		// more records to steal.
		"getRecord": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			if len(args) < 1 || args[0].Kind != interp.ValPtr || !args[0].P.InBounds() {
				return interp.Value{}, fmt.Errorf("gpurt: getRecord needs &line")
			}
			if t.pending < 0 {
				return interp.IntVal(-1), nil
			}
			rec := records[t.pending]
			t.pending = -1
			args[0].P.Obj.Cells[args[0].P.Off] = interp.PtrVal(interp.Pointer{Obj: ipObj, Off: int(rec.Start)})
			t.cost.Op(6)
			return interp.IntVal(int64(rec.Len)), nil
		},
		// emitKV(key, value): serialize into the thread's KV store portion.
		"emitKV": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return interp.Value{}, fmt.Errorf("gpurt: emitKV wants (key, value)")
			}
			key, err := valueOf(schema.KeyKind, args[0])
			if err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: emitKV key: %w", err)
			}
			val, err := valueOf(schema.ValKind, args[1])
			if err != nil {
				return interp.Value{}, fmt.Errorf("gpurt: emitKV value: %w", err)
			}
			if _, err := store.Emit(t.id, key, val); err != nil {
				return interp.Value{}, err
			}
			chargeKVBytes(t.cost, schema.SlotKeyLen(), opts.VectorMap)
			chargeKVBytes(t.cost, schema.SlotValLen(), opts.VectorMap)
			t.cost.Op(8) // partition hash + index bookkeeping
			return interp.Value{}, nil
		},
		"strcmpGPU": strCmpGPU(t.cost, opts.VectorMap),
		"strcpyGPU": strCpyGPU(t.cost, opts.VectorMap),
		"strlenGPU": strLenGPU(t.cost, opts.VectorMap),
	}
}

// valueOf converts an interpreter value into a typed KV value.
func valueOf(kind kv.Kind, v interp.Value) (kv.Value, error) {
	switch kind {
	case kv.Bytes:
		if v.Kind != interp.ValPtr || v.P.IsNull() {
			return kv.Value{}, fmt.Errorf("byte key/value is not a string pointer")
		}
		return kv.StringValue(interp.ReadCString(v.P)), nil
	case kv.Int:
		return kv.IntValue(v.AsInt()), nil
	case kv.Float:
		return kv.FloatValue(v.AsFloat()), nil
	default:
		return kv.Value{}, fmt.Errorf("unknown kind %v", kind)
	}
}

// chargeKVBytes charges a KV field's global-memory traffic, vectorized
// (char4 transactions) or strided.
func chargeKVBytes(cost *gpu.ThreadCost, n int, vectorized bool) {
	if vectorized {
		cost.CoalescedAccess(n, 4)
	} else {
		cost.StridedAccess(n)
	}
}

// strCmpGPU, strCpyGPU, strLenGPU are the GPU string intrinsics the
// translator substitutes; functionally identical to the C versions but
// charged per the vectorization model.
func strCmpGPU(cost *gpu.ThreadCost, vectorized bool) interp.Builtin {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		a, b, err := twoPtrs(args, "strcmpGPU")
		if err != nil {
			return interp.Value{}, err
		}
		sa, sb := interp.ReadCString(a), interp.ReadCString(b)
		n := len(sa)
		if len(sb) > n {
			n = len(sb)
		}
		chargeStringAccess(cost, a, n+1, vectorized)
		chargeStringAccess(cost, b, n+1, vectorized)
		switch {
		case sa < sb:
			return interp.IntVal(-1), nil
		case sa > sb:
			return interp.IntVal(1), nil
		}
		return interp.IntVal(0), nil
	}
}

func strCpyGPU(cost *gpu.ThreadCost, vectorized bool) interp.Builtin {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		dst, src, err := twoPtrs(args, "strcpyGPU")
		if err != nil {
			return interp.Value{}, err
		}
		s := interp.ReadCString(src)
		interp.WriteCString(dst, s)
		chargeStringAccess(cost, src, len(s)+1, vectorized)
		chargeStringAccess(cost, dst, len(s)+1, vectorized)
		return args[0], nil
	}
}

func strLenGPU(cost *gpu.ThreadCost, vectorized bool) interp.Builtin {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		if len(args) != 1 || args[0].Kind != interp.ValPtr || args[0].P.IsNull() {
			return interp.Value{}, fmt.Errorf("gpurt: strlenGPU wants a string pointer")
		}
		s := interp.ReadCString(args[0].P)
		chargeStringAccess(cost, args[0].P, len(s)+1, vectorized)
		return interp.IntVal(int64(len(s))), nil
	}
}

func twoPtrs(args []interp.Value, fn string) (a, b interp.Pointer, err error) {
	if len(args) != 2 || args[0].Kind != interp.ValPtr || args[0].P.IsNull() ||
		args[1].Kind != interp.ValPtr || args[1].P.IsNull() {
		return a, b, fmt.Errorf("gpurt: %s wants two string pointers", fn)
	}
	return args[0].P, args[1].P, nil
}

// chargeStringAccess charges n bytes touched at p: vectorized char4
// transactions when enabled, otherwise per-byte at the object's memory
// space cost.
func chargeStringAccess(cost *gpu.ThreadCost, p interp.Pointer, n int, vectorized bool) {
	if vectorized {
		cost.CoalescedAccess(n, 4)
		return
	}
	for i := 0; i < n; i++ {
		cost.Load(p.Obj.Space, 1)
	}
}
