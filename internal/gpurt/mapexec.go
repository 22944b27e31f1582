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
// to the region. It returns the host's objects for the kernel program's
// free symbols and globals there.
func captureHost(comp *compiler.Compiled, stdout io.Writer) (*bytecode.LaunchPoint, error) {
	m := interp.New(comp.Kernel.Prog, interp.Options{Stdout: stdout})
	lp, err := bytecode.NewVM(m, comp.KernelVM).Launch()
	if err != nil {
		return nil, fmt.Errorf("gpurt: host program failed: %w", err)
	}
	if lp == nil {
		return nil, fmt.Errorf("gpurt: host program never reached its mapreduce region")
	}
	return lp, nil
}

// kernelLaunch is what every simulated thread (or warp) of one kernel
// launch shares, read-only, across threadblock goroutines: the kernel's
// image, the host's objects at the launch point, the objects all threads
// share, and a thread's machine options, all but its cost sink.
type kernelLaunch struct {
	comp         *compiler.Compiled
	img          *bytecode.Image
	host         []*interp.Object // by kernel slot
	shared       []*interp.Object // by kernel slot: the sharedRO objects
	firstPrivate []*interp.Object // by kernel slot: the host objects each thread copies
	machine      interp.Options
}

// newKernelLaunch links comp's kernel program for one launch, with the
// GPU runtime functions intrinsics. A thread places its arrays in
// arraySpace (§4.2 puts combiner private arrays in shared memory) and its
// scalars in registers. sharedRO scalars go to constant memory, arrays to
// global or texture memory, as the host's cells, which no thread writes.
func newKernelLaunch(comp *compiler.Compiled, host *bytecode.LaunchPoint, opts Options,
	arraySpace interp.MemSpace, intrinsics map[string]interp.Builtin) *kernelLaunch {

	machine := interp.Options{
		DefaultSpace: arraySpace,
		SpaceFor: func(sym *minic.Symbol) interp.MemSpace {
			if sym.Type != nil && sym.Type.Kind == minic.TypeArray {
				return arraySpace
			}
			return interp.SpaceReg
		},
		Intrinsics: intrinsics,
	}
	l := &kernelLaunch{
		comp:         comp,
		img:          bytecode.NewImage(interp.New(comp.Kernel.Prog, machine), comp.KernelVM, host.Globals),
		host:         host.Slots,
		shared:       make([]*interp.Object, len(host.Slots)),
		firstPrivate: make([]*interp.Object, len(host.Slots)),
		machine:      machine,
	}
	for _, f := range comp.KernelVM.Free {
		var space interp.MemSpace
		switch comp.Kernel.Plan[f.Sym] {
		case compiler.ClassFirstPrivate:
			l.firstPrivate[f.Slot] = host.Slots[f.Slot]
			continue
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
		h := host.Slots[f.Slot]
		l.shared[f.Slot] = &interp.Object{Cells: h.Cells, Elem: h.Elem, Space: space, Name: h.Name}
	}
	return l
}

// bind builds the VM of one thread or warp whose cost sink is sink: its
// own machine and globals, and kernel slots holding the launch's shared
// objects plus fresh private and firstprivate ones. A firstprivate slot
// starts with the host's cells, and what a pointer among them reaches is
// the thread's own copy, as for the globals.
func (l *kernelLaunch) bind(sink interp.CostSink) (*bytecode.FragmentVM, error) {
	objs := make([]*interp.Object, len(l.shared))
	copy(objs, l.shared)
	for _, f := range l.comp.KernelVM.Free {
		cls := l.comp.Kernel.Plan[f.Sym]
		if cls != compiler.ClassPrivate && cls != compiler.ClassFirstPrivate {
			continue
		}
		h := l.host[f.Slot]
		space := interp.SpaceReg
		if len(h.Cells) > 1 {
			space = l.machine.DefaultSpace
		}
		objs[f.Slot] = interp.NewObject(f.Sym.Name, h.Elem, len(h.Cells), space)
	}
	opts := l.machine
	opts.Cost = sink
	return bytecode.NewFragmentVM(interp.New(l.comp.Kernel.Prog, opts), l.img, objs, l.firstPrivate)
}

// mapThread is one simulated GPU thread of the map kernel. It is its
// machine's cost sink, through which the launch's intrinsics find it.
type mapThread struct {
	gpu.ThreadCost
	id int // global thread id (block*threadsPerBlock + lane)
	// vm runs the kernel program's condition and body entries.
	vm *bytecode.FragmentVM
	// pending is the record the next getRecord returns, nil for none.
	pending *Record
	ran     bool
}

// mapLaunch is one map kernel launch: what its threads share, and the
// device, KV store and launch geometry they run with.
type mapLaunch struct {
	*kernelLaunch
	cfg     *gpu.DeviceConfig
	store   *KVStore
	tpb     int // threads per block
	kvBound int
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
		if pick == nil || t.Cycles < pick.Cycles {
			pick = t
		}
	}
	if pick == nil {
		for _, t := range threads {
			if store.Remaining(t.id) > 0 && (pick == nil || t.Cycles < pick.Cycles) {
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
func (t *mapThread) run(rec *Record) error {
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
	t.pending = nil
	if _, _, err := t.vm.Run(compiler.EntryCond); err != nil {
		return err
	}
	t.Op(16) // mapFinish bookkeeping
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
func ExecMapKernel(dev *gpu.Device, comp *compiler.Compiled, host *bytecode.LaunchPoint,
	input []byte, records []Record, store *KVStore, opts Options) (*MapKernelResult, error) {

	spec := comp.Kernel
	if spec.Kind != compiler.RegionMapper {
		return nil, fmt.Errorf("gpurt: ExecMapKernel on a %v kernel", spec.Kind)
	}
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
	l := &mapLaunch{
		kernelLaunch: newKernelLaunch(comp, host, opts, interp.SpaceLocal, mapIntrinsics(ipObj, store, comp.Schema, opts)),
		cfg:          &dev.Config,
		store:        store,
		tpb:          tpb,
		kvBound:      kvBound,
	}

	var blockCycles []float64
	var breakdown gpu.CycleBreakdown
	var steals int64
	var err error
	if opts.RecordStealing && opts.GlobalStealing {
		// The stealing-granularity ablation: one device-wide record queue
		// balances the blocks, but each steal serializes on its global
		// counter (modeled linearly in the thread count, floored at 1).
		lanes := min(blocks*tpb, len(records))
		contention := int(max(float64(lanes)/float64(dev.Config.WarpSize), 1))
		blockCycles = make([]float64, (lanes+tpb-1)/tpb)
		breakdown, steals, err = l.runLanes(records, 0, lanes, blockCycles, func(t *mapThread) {
			for i := 0; i < contention; i++ {
				t.Atomic(interp.SpaceGlobal)
			}
		})
	} else {
		blockCycles, breakdown, steals, err = l.runBlocks(records, blocks, opts.RecordStealing)
	}
	if err != nil {
		return nil, err
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

// runBlocks splits the records statically across the launch's
// threadblocks and runs each block's share on its own goroutine, its
// threads stealing through the block's shared-memory record counter when
// stealing is on. It returns every block's cycles, the per-space cycle
// breakdown summed block by block, and the steals.
func (l *mapLaunch) runBlocks(records []Record, blocks int, stealing bool) ([]float64, gpu.CycleBreakdown, int64, error) {
	var steal func(*mapThread)
	if stealing {
		steal = func(t *mapThread) { t.Atomic(interp.SpaceShared) }
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
		hi := min(lo+perBlock, len(records))
		wg.Add(1)
		//detlint:ignore bare-goroutine: each block writes only its own slots, and the results merge in block order
		go func(b, lo, hi int) {
			defer wg.Done()
			blockBreakdowns[b], blockSteals[b], blockErrs[b] = l.runLanes(records[lo:hi], b*l.tpb, min(l.tpb, hi-lo), blockCycles[b:b+1], steal)
		}(b, lo, hi)
	}
	wg.Wait()
	for _, err := range blockErrs {
		if err != nil {
			return nil, gpu.CycleBreakdown{}, 0, err
		}
	}
	var steals int64
	var breakdown gpu.CycleBreakdown
	for b, s := range blockSteals {
		steals += s
		breakdown.Add(blockBreakdowns[b])
	}
	return blockCycles, breakdown, steals, nil
}

// runLanes runs records on the launch's threads first..first+n-1. With a
// nil steal, record i goes to lane i % n; otherwise each record goes to
// the least-loaded thread, which steal charges for the atomic that won
// it. The threads group in lane order into threadblocks of tpb: runLanes
// writes each block's cycles (its slowest thread's) into blockCycles and
// returns the threads' per-space cycle breakdown, summed lane by lane,
// and the steals.
func (l *mapLaunch) runLanes(records []Record, first, n int, blockCycles []float64, steal func(*mapThread)) (gpu.CycleBreakdown, int64, error) {
	threads := make([]*mapThread, n)
	var err error
	for i := range threads {
		t := &mapThread{ThreadCost: *gpu.NewThreadCost(l.cfg), id: first + i}
		if t.vm, err = l.bind(t); err != nil {
			return gpu.CycleBreakdown{}, 0, fmt.Errorf("gpurt: map kernel: %w", err)
		}
		t.Op(24) // mapSetup overhead
		threads[i] = t
	}
	var steals int64
	for rec := range records {
		pick := threads[rec%n]
		if steal != nil {
			if pick, err = pickThread(threads, l.store, l.kvBound); err != nil {
				return gpu.CycleBreakdown{}, 0, err
			}
			steal(pick)
			steals++
		}
		if err := pick.run(&records[rec]); err != nil {
			return gpu.CycleBreakdown{}, 0, err
		}
	}
	var breakdown gpu.CycleBreakdown
	for i, t := range threads {
		if err := t.finish(); err != nil {
			return gpu.CycleBreakdown{}, 0, err
		}
		blockCycles[i/l.tpb] = max(blockCycles[i/l.tpb], t.Cycles)
		breakdown.Add(t.Breakdown)
	}
	return breakdown, steals, nil
}

// mapIntrinsics binds the GPU runtime functions of one map launch. They
// find the calling thread through their machine's cost sink.
func mapIntrinsics(ipObj *interp.Object, store *KVStore, schema kv.Schema, opts Options) map[string]interp.Builtin {
	return map[string]interp.Builtin{
		// getRecord(&line): point *line at the granted record inside the
		// input buffer and return its length, or -1 when the thread has no
		// more records to steal.
		"getRecord": func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
			if len(args) < 1 || args[0].Kind != interp.ValPtr || !args[0].P.InBounds() {
				return interp.Value{}, fmt.Errorf("gpurt: getRecord needs &line")
			}
			t := m.Cost().(*mapThread)
			rec := t.pending
			if rec == nil {
				return interp.IntVal(-1), nil
			}
			t.pending = nil
			args[0].P.Obj.Cells[args[0].P.Off] = interp.PtrVal(interp.Pointer{Obj: ipObj, Off: int(rec.Start)})
			t.Op(6)
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
			t := m.Cost().(*mapThread)
			if _, err := store.Emit(t.id, key, val); err != nil {
				return interp.Value{}, err
			}
			chargeKVBytes(t, schema.SlotKeyLen(), opts.VectorMap)
			chargeKVBytes(t, schema.SlotValLen(), opts.VectorMap)
			t.Op(8) // partition hash + index bookkeeping
			return interp.Value{}, nil
		},
		"strcmpGPU": strCmpGPU(opts.VectorMap),
		"strcpyGPU": strCpyGPU(opts.VectorMap),
		"strlenGPU": strLenGPU(opts.VectorMap),
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

// kernelCost is the cost model a map thread or a combine warp embeds:
// what the GPU intrinsics charge, through their machine's cost sink.
type kernelCost interface {
	Load(space interp.MemSpace, width int)
	CoalescedAccess(n, width int)
	StridedAccess(n int)
}

// chargeKVBytes charges a KV field's global-memory traffic, vectorized
// (char4 transactions) or strided.
func chargeKVBytes(cost kernelCost, n int, vectorized bool) {
	if vectorized {
		cost.CoalescedAccess(n, 4)
	} else {
		cost.StridedAccess(n)
	}
}

// strCmpGPU, strCpyGPU, strLenGPU are the GPU string intrinsics the
// translator substitutes; functionally identical to the C versions but
// charged per the vectorization model.
func strCmpGPU(vectorized bool) interp.Builtin {
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
		cost := m.Cost().(kernelCost)
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

func strCpyGPU(vectorized bool) interp.Builtin {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		dst, src, err := twoPtrs(args, "strcpyGPU")
		if err != nil {
			return interp.Value{}, err
		}
		s := interp.ReadCString(src)
		interp.WriteCString(dst, s)
		cost := m.Cost().(kernelCost)
		chargeStringAccess(cost, src, len(s)+1, vectorized)
		chargeStringAccess(cost, dst, len(s)+1, vectorized)
		return args[0], nil
	}
}

func strLenGPU(vectorized bool) interp.Builtin {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		if len(args) != 1 || args[0].Kind != interp.ValPtr || args[0].P.IsNull() {
			return interp.Value{}, fmt.Errorf("gpurt: strlenGPU wants a string pointer")
		}
		s := interp.ReadCString(args[0].P)
		chargeStringAccess(m.Cost().(kernelCost), args[0].P, len(s)+1, vectorized)
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
func chargeStringAccess(cost kernelCost, p interp.Pointer, n int, vectorized bool) {
	if vectorized {
		cost.CoalescedAccess(n, 4)
		return
	}
	for i := 0; i < n; i++ {
		cost.Load(p.Obj.Space, 1)
	}
}
