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
	"repro/internal/perf"
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
	// Prof is not an optimization: it is the wall-clock profiler the
	// runtime charges its phases and per-thread interpreter buckets to.
	// Nil (the zero value) disables profiling. It rides in Options so the
	// kernel executors' signatures stay put.
	Prof *perf.Profiler
}

// AllOptimizations returns the fully optimized configuration.
func AllOptimizations() Options {
	return Options{UseTexture: true, VectorMap: true, VectorCombine: true, RecordStealing: true, Aggregation: true}
}

// Baseline returns the translated-but-unoptimized configuration (the
// "base" bars of Fig. 5).
func Baseline() Options { return Options{} }

// hostCapture is the host-side state of a translated program at its kernel
// launch point: the paper's generated host code reaches the region with
// all firstprivate/sharedRO values computed; we capture them by running
// main with the region intercepted.
type hostCapture struct {
	machine *interp.Machine
	frame   *interp.Frame
	pragma  *minic.PragmaStmt
}

// captureHost runs the translated program's main, intercepting the
// mapreduce region, and returns the captured launch-point state.
func captureHost(comp *compiler.Compiled, stdout io.Writer) (*hostCapture, error) {
	return captureHostCol(comp, stdout, nil)
}

// captureHostCol is captureHost with an optional profiling collector for
// the host program's interpretation.
func captureHostCol(comp *compiler.Compiled, stdout io.Writer, col *perf.Collector) (*hostCapture, error) {
	cap := &hostCapture{}
	m := interp.New(comp.Kernel.Prog, interp.Options{
		Stdout: stdout,
		Prof:   col,
		OnPragma: func(p *minic.PragmaStmt, fr *interp.Frame) (bool, error) {
			cap.frame = fr
			cap.pragma = p
			return true, nil
		},
	})
	cap.machine = m
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("gpurt: host program failed: %w", err)
	}
	if cap.frame == nil {
		return nil, fmt.Errorf("gpurt: host program never reached its mapreduce region")
	}
	return cap, nil
}

// objectFor resolves a plan symbol to its host-side storage.
func (h *hostCapture) objectFor(sym *minic.Symbol) (*interp.Object, error) {
	if obj := h.frame.Object(sym); obj != nil {
		return obj, nil
	}
	if obj := h.machine.GlobalObject(sym); obj != nil {
		return obj, nil
	}
	return nil, fmt.Errorf("gpurt: no host storage for captured variable %q", sym.Name)
}

// sharedBindings builds the objects shared by all threads: sharedRO
// scalars (constant memory) and arrays (global or texture).
func sharedBindings(spec *compiler.KernelSpec, cap *hostCapture, opts Options) (map[*minic.Symbol]*interp.Object, error) {
	out := map[*minic.Symbol]*interp.Object{}
	for sym, cls := range spec.Plan {
		var space interp.MemSpace
		switch cls {
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
		host, err := cap.objectFor(sym)
		if err != nil {
			return nil, err
		}
		// Retag the host object's storage with the device space; the data
		// itself was cudaMemcpy'd in (cells are shared, read-only).
		out[sym] = &interp.Object{Cells: host.Cells, Elem: host.Elem, Space: space, Name: host.Name}
	}
	return out, nil
}

// privateBindings builds one thread's (or warp's) private and firstprivate
// objects. arraySpace is SpaceLocal for map kernels and SpaceShared for
// combine kernels (paper §4.2 places combiner private arrays in shared
// memory).
func privateBindings(spec *compiler.KernelSpec, cap *hostCapture, arraySpace interp.MemSpace) (map[*minic.Symbol]*interp.Object, error) {
	out := map[*minic.Symbol]*interp.Object{}
	for sym, cls := range spec.Plan {
		switch cls {
		case compiler.ClassPrivate, compiler.ClassFirstPrivate:
		default:
			continue
		}
		host, err := cap.objectFor(sym)
		if err != nil {
			return nil, err
		}
		space := interp.SpaceReg
		if len(host.Cells) > 1 {
			space = arraySpace
		}
		obj := interp.NewObject(sym.Name, host.Elem, len(host.Cells), space)
		if cls == compiler.ClassFirstPrivate {
			copy(obj.Cells, host.Cells)
		}
		out[sym] = obj
	}
	return out, nil
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
	id      int // global thread id (block*threadsPerBlock + lane)
	machine *interp.Machine
	frame   *interp.Frame
	cost    *gpu.ThreadCost
	// condVM / bodyVM execute the region loop's condition and body.
	condVM  *bytecode.FragmentVM
	bodyVM  *bytecode.FragmentVM
	pending int // granted record index, -1 = none
	ran     bool
}

// newMapThread builds map thread id of a launch: its machine with the GPU
// map intrinsics over records, a frame binding the launch-shared objects
// and fresh private copies, and the region's fragment VMs. It charges the
// mapSetup overhead.
func newMapThread(id int, dev *gpu.Device, comp *compiler.Compiled, cap *hostCapture,
	shared map[*minic.Symbol]*interp.Object, ipObj *interp.Object,
	records []Record, store *KVStore, opts Options, col *perf.Collector) (*mapThread, error) {

	t := &mapThread{id: id, pending: -1, cost: gpu.NewThreadCost(&dev.Config)}
	priv, err := privateBindings(comp.Kernel, cap, interp.SpaceLocal)
	if err != nil {
		return nil, err
	}
	t.machine = interp.New(comp.Kernel.Prog, interp.Options{
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
	t.machine.SetCost(t.cost)
	v, err := t.evalCond()
	if err != nil {
		return err
	}
	if !v.Truthy() {
		return fmt.Errorf("gpurt: map loop refused a granted record")
	}
	return t.execBody()
}

// finish runs the final loop-condition evaluation of a thread that ran:
// getRecord returns -1 and the user loop exits, assigning read = -1 as the
// real kernel would.
func (t *mapThread) finish() error {
	if !t.ran {
		return nil
	}
	t.pending = -1
	if _, err := t.evalCond(); err != nil {
		return err
	}
	t.cost.Op(16) // mapFinish bookkeeping
	return nil
}

// evalCond evaluates the region loop condition.
func (t *mapThread) evalCond() (interp.Value, error) {
	v, _, err := t.condVM.Run()
	return v, err
}

// execBody executes the region loop body.
func (t *mapThread) execBody() error {
	_, _, err := t.bodyVM.Run()
	return err
}

// bindFragmentVMs attaches the compiled region fragments to the thread,
// resolving free symbols against the thread frame first and the kernel
// program's globals second.
func (t *mapThread) bindFragmentVMs(cond, body *bytecode.Program) error {
	lookup := func(sym *minic.Symbol) *interp.Object {
		if obj := t.frame.Object(sym); obj != nil {
			return obj
		}
		return t.machine.GlobalObject(sym)
	}
	var err error
	if t.condVM, err = bytecode.NewFragmentVM(t.machine, cond, lookup); err != nil {
		return fmt.Errorf("gpurt: map kernel condition: %w", err)
	}
	if t.bodyVM, err = bytecode.NewFragmentVM(t.machine, body, lookup); err != nil {
		return fmt.Errorf("gpurt: map kernel body: %w", err)
	}
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
func ExecMapKernel(dev *gpu.Device, comp *compiler.Compiled, cap *hostCapture,
	input []byte, records []Record, store *KVStore, opts Options) (*MapKernelResult, error) {

	spec := comp.Kernel
	if spec.Kind != compiler.RegionMapper {
		return nil, fmt.Errorf("gpurt: ExecMapKernel on a %v kernel", spec.Kind)
	}
	shared, err := sharedBindings(spec, cap, opts)
	if err != nil {
		return nil, err
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

	if opts.RecordStealing && opts.GlobalStealing {
		return execMapKernelGlobalSteal(dev, comp, cap, shared, ipObj, records, store, opts, blocks, tpb, kvBound)
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
		go func(b, lo, hi int) {
			defer wg.Done()
			cycles, bd, steals, err := runMapBlock(dev, comp, cap, shared, ipObj, records[lo:hi], store, opts, b, tpb, kvBound)
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
func runMapBlock(dev *gpu.Device, comp *compiler.Compiled, cap *hostCapture,
	shared map[*minic.Symbol]*interp.Object, ipObj *interp.Object,
	records []Record, store *KVStore, opts Options,
	block, tpb, kvBound int) (float64, gpu.CycleBreakdown, int64, error) {

	// One collector per block: this function runs on its own goroutine, and
	// all the block's thread machines share it (they execute sequentially).
	col := opts.Prof.Collector(perf.PhaseGPUMap)
	defer col.Flush()
	threads := make([]*mapThread, 0, tpb)
	lanes := tpb
	if lanes > len(records) {
		lanes = len(records)
	}
	for lane := 0; lane < lanes; lane++ {
		t, err := newMapThread(block*tpb+lane, dev, comp, cap, shared, ipObj, records, store, opts, col)
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
