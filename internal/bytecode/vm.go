package bytecode

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/minic"
)

// VM executes compiled bytecode against an interp.Machine, which owns
// object memory, string literals, the builtin table, cost charging, and
// the step budget. The VM keeps the globals' objects, and reads what
// depends only on the program and its linking from an Image. One VM
// serves one machine; it is not safe for concurrent use (neither is the
// machine).
type VM struct {
	*Image
	m *interp.Machine

	// cost is read from the machine on every entry. counting is cost when
	// it is an *interp.CountingSink and the image folded its traffic,
	// which a charge then adds as one vector; nil otherwise.
	cost     interp.CostSink
	counting *interp.CountingSink

	// objs holds the globals' objects by Syms index: defined by <init>,
	// or a kernel thread's copies of its launch image's.
	objs []*interp.Object
	// started records that <init> ran (see start).
	started bool
	// launched is what a launch instruction handed over.
	launched *LaunchPoint

	pools [][]*vmFrame
	args  []interp.Value
}

// Image is the part of a VM that depends only on its program and on how
// a machine links it: each symbol's storage traits, each callee's target
// and, for a kernel launch, the global objects at the launch point. It is
// read-only once built, so every simulated thread and warp of one kernel
// launch, in any threadblock goroutine, shares one.
type Image struct {
	Prog    *Program
	syms    []symInfo // by Syms index
	linked  []linkedCallee
	globals []*interp.Object // by Syms index; see copyIn
	// vecs holds Prog.Traffic folded over syms, by list, when the linking
	// machine charges an *interp.CountingSink; nil otherwise, as for
	// every GPU image, whose sinks take each access in order.
	vecs []trafficVec
	// What one VM allocates up front (see callDepth): the argument stack
	// depth of a run of main and <init> (args), and for a kernel thread,
	// of its entries (threadArgs) and how many functions, by index, its
	// frame pools cover (threadFns: one past the last callee).
	args, threadArgs, threadFns int32
}

// trafficVec is one Program.Traffic list folded over an image's symbols:
// its loads, its stores, and the bytes they move in each memory space.
// Integer sums do not depend on order, so adding it to a CountingSink
// gives the totals of its accesses charged one at a time.
type trafficVec struct {
	loads, stores int64
	bytes         []spaceBytes // one per space, in first-access order
}

type spaceBytes struct {
	space       interp.MemSpace
	load, store int64
}

// addTo charges the vector to c.
func (v *trafficVec) addTo(c *interp.CountingSink) {
	c.Loads += v.loads
	c.Stores += v.stores
	for _, b := range v.bytes {
		c.LoadBytes[b.space] += b.load
		c.StoreBytes[b.space] += b.store
	}
}

// foldTraffic builds img.vecs, every vector's bytes in one backing array.
func (img *Image) foldTraffic() {
	n := 0
	for _, acc := range img.Prog.Traffic {
		n += len(acc)
	}
	all := make([]spaceBytes, 0, n)
	img.vecs = make([]trafficVec, len(img.Prog.Traffic))
	for i, acc := range img.Prog.Traffic {
		v, start := &img.vecs[i], len(all)
		for _, a := range acc {
			s := &img.syms[a.Sym]
			v.loads += int64(a.Loads)
			v.stores += int64(a.Stores)
			j := start
			for j < len(all) && all[j].space != s.space {
				j++
			}
			if j == len(all) {
				all = append(all, spaceBytes{space: s.space})
			}
			all[j].load += int64(a.Loads) * int64(s.width)
			all[j].store += int64(a.Stores) * int64(s.width)
		}
		v.bytes = all[start:len(all):len(all)]
	}
}

// symInfo is what the variable opcodes need of one symbol: its storage's
// memory space and width, and its conversion code.
type symInfo struct {
	space interp.MemSpace
	width int
	conv  uint8
}

// Conversion codes precomputed per symbol so OpStoreV's hot path skips
// the generic ConvertFor call when the stored kind already matches.
const (
	convOther  uint8 = iota // generic: call interp.ConvertFor
	convNone                // untyped symbol: store as-is
	convLong                // int64 storage: identity for int values
	convDouble              // float64 storage: identity for float values
	convInt                 // 32-bit truncation
	convChar                // 8-bit truncation
	convPtr                 // pointer storage: identity for pointer values
)

// convCodeFor classifies one declared type for the OpStoreV fast path.
func convCodeFor(t *minic.Type) uint8 {
	if t == nil {
		return convNone
	}
	switch t.Kind {
	case minic.TypeLong:
		return convLong
	case minic.TypeDouble:
		return convDouble
	case minic.TypeInt:
		return convInt
	case minic.TypeChar:
		return convChar
	case minic.TypePointer:
		return convPtr
	default:
		return convOther
	}
}

type calleeKind uint8

const (
	ckBuiltin calleeKind = iota
	ckFn
	ckUnknown
)

type linkedCallee struct {
	kind  calleeKind
	impl  interp.Builtin
	fnIdx int32
}

type vmFrame struct {
	regs []interp.Value
	objs []*interp.Object
}

// NewImage links p against m: it places each symbol's storage in m's
// memory spaces and binds each callee to one of m's builtins or to a
// function of p. globals, by Syms index, are what the threads of a
// kernel launch copy (LaunchPoint.Globals); nil when VMs run <init>.
func NewImage(m *interp.Machine, p *Program, globals []*interp.Object) *Image {
	img := &Image{
		Prog:    p,
		syms:    make([]symInfo, len(p.Syms)),
		linked:  make([]linkedCallee, len(p.Callees)),
		globals: globals,
	}
	for i, sym := range p.Syms {
		s := &img.syms[i]
		s.space, s.conv = m.SpaceOf(sym), convCodeFor(sym.Type)
		if sym.Type != nil {
			s.width = sym.Type.Size()
		}
	}
	for i, c := range p.Callees {
		img.linked[i] = link(m, p, c)
	}
	if _, ok := m.Cost().(*interp.CountingSink); ok {
		img.foldTraffic()
	}
	var buf [16]int32
	memo := buf[:0]
	if len(p.Fns) > len(buf) {
		memo = make([]int32, 0, len(p.Fns))
	}
	memo = memo[:len(p.Fns)]
	last := int32(-1)
	for i := range p.Fns {
		d := img.callDepth(i, memo, &last)
		if i < p.Entries {
			img.threadArgs = max(img.threadArgs, d)
			img.threadFns = last + 1
		}
		img.args = max(img.args, d)
	}
	return img
}

// callDepth returns the most argument values a run of Fns[fn] can hold on
// a VM's argument stack at once: a call's arguments stay pushed while its
// callee runs. A recursive call counts its own arguments only, and
// append grows the stack past that. It raises *last to the index of each
// program function the run can call. memo holds 1 + each finished
// function's depth, and -1 while one is on the call path.
func (img *Image) callDepth(fn int, memo []int32, last *int32) int32 {
	if memo[fn] != 0 {
		return max(memo[fn]-1, 0)
	}
	memo[fn] = -1
	d := int32(0)
	for _, in := range img.Prog.Fns[fn].Code {
		switch in.Op {
		case OpLaunch:
			d = max(d, in.A)
		case OpCall:
			callee := int32(0)
			if lc := img.linked[in.B]; lc.kind == ckFn {
				*last = max(*last, lc.fnIdx)
				callee = img.callDepth(int(lc.fnIdx), memo, last)
			}
			d = max(d, in.C+callee)
		}
	}
	memo[fn] = d + 1
	return d
}

// link binds one callee with evalCall's dispatch order: sema-marked
// builtins first, then program functions, then intrinsics installed
// without sema marking, else unknown. Every program function the code
// calls is compiled into the program: a whole program holds all of them,
// and a kernel program holds the functions its entries reach.
func link(m *interp.Machine, p *Program, c Callee) linkedCallee {
	impl, hasBuiltin := m.BuiltinNamed(c.Name)
	if hasBuiltin && c.Builtin {
		return linkedCallee{kind: ckBuiltin, impl: impl}
	}
	for i, f := range p.Fns {
		if f.Name == c.Name {
			return linkedCallee{kind: ckFn, fnIdx: int32(i)}
		}
	}
	if hasBuiltin {
		return linkedCallee{kind: ckBuiltin, impl: impl}
	}
	return linkedCallee{kind: ckUnknown}
}

// NewVM builds an executor binding p to m, which runs <init> before its
// first run.
func NewVM(m *interp.Machine, p *Program) *VM {
	vm := &VM{}
	img := NewImage(m, p, nil)
	vm.bind(m, img, len(p.Fns), img.args)
	vm.objs = make([]*interp.Object, len(p.Syms))
	return vm
}

// bind readies vm to run img's code on m, with frame pools for Fns[:fns]
// and room for args argument values.
func (vm *VM) bind(m *interp.Machine, img *Image, fns int, args int32) {
	vm.Image, vm.m = img, m
	vm.pools = make([][]*vmFrame, fns)
	vm.args = make([]interp.Value, 0, args)
}

// refresh re-reads the machine's per-run cost sink.
func (vm *VM) refresh() {
	vm.cost = vm.m.Cost()
	vm.counting = nil
	if c, ok := vm.cost.(*interp.CountingSink); ok && vm.vecs != nil {
		vm.counting = c
	}
}

// errStopAtLaunch ends a host part's run at its kernel launch point,
// unwinding every frame; see Launch.
var errStopAtLaunch = errors.New("bytecode: run stopped at its kernel launch point")

// start readies the VM for a run: it re-reads the cost sink and, on the
// first run, runs <init>, which defines every global in objs. A VM
// serves one machine, so <init> runs once per machine.
func (vm *VM) start() error {
	vm.refresh()
	if vm.started {
		return nil
	}
	vm.started = true
	if vm.Prog.Init < 0 {
		return nil
	}
	_, _, err := vm.callFn(int32(vm.Prog.Init), nil)
	return err
}

// Run runs <init>, then main, and unwraps exit(), as the walker's Run.
func (vm *VM) Run() (int, error) {
	v, err := vm.runMain()
	if code, ok := interp.ExitStatus(err); ok {
		return code, nil
	}
	if err != nil {
		return 0, err
	}
	return int(v.AsInt()), nil
}

func (vm *VM) runMain() (interp.Value, error) {
	if err := vm.start(); err != nil {
		return interp.Value{}, err
	}
	if vm.Prog.Main < 0 {
		return interp.Value{}, errors.New("interp: program has no main function")
	}
	v, _, err := vm.callFn(int32(vm.Prog.Main), nil)
	return v, err
}

// LaunchPoint is what a kernel program's host part hands over at its
// launch point: the host's objects as main leaves them there, the free
// symbols' by kernel slot (Free[i]'s at Free[i].Slot) and the globals'
// by Syms index.
type LaunchPoint struct {
	Slots, Globals []*interp.Object
}

// Launch runs a kernel program's host part: <init>, then main, up to the
// launch point of the host entry (see CompileKernel), and returns what
// the launch point hands over. It returns nil and no error when main
// ends, by a return or by exit(), without reaching the launch point.
func (vm *VM) Launch() (*LaunchPoint, error) {
	_, err := vm.runMain()
	if errors.Is(err, errStopAtLaunch) {
		return vm.launched, nil
	}
	if _, ok := interp.ExitStatus(err); ok {
		err = nil
	}
	return nil, err
}

func (vm *VM) getFrame(fnIdx int32) *vmFrame {
	pool := vm.pools[fnIdx]
	if n := len(pool); n > 0 {
		fr := pool[n-1]
		vm.pools[fnIdx] = pool[:n-1]
		return fr
	}
	fn := vm.Prog.Fns[fnIdx]
	return &vmFrame{
		regs: make([]interp.Value, fn.NumRegs),
		objs: make([]*interp.Object, fn.NumObjSlots),
	}
}

// putFrame returns fn's frame fr to its pool. Registers need no clearing
// (every read is dominated by a write). A kept parameter's object stays in
// its slot with its cell cleared, and every other slot is nilled, so a
// pooled frame retains no dead array and no caller's buffer.
func (vm *VM) putFrame(fn *Fn, fnIdx int32, fr *vmFrame) {
	for i, obj := range fr.objs {
		if obj != nil && kept(fn, int32(i)) {
			obj.Cells[0] = interp.Value{}
		} else {
			fr.objs[i] = nil
		}
	}
	vm.pools[fnIdx] = append(vm.pools[fnIdx], fr)
}

// kept reports whether slot holds one of fn's kept parameters.
func kept(fn *Fn, slot int32) bool {
	for _, p := range fn.Params {
		if p.Kept && p.Slot == slot {
			return true
		}
	}
	return false
}

// callFn invokes a compiled function with the walker's exact call
// semantics: arity check, per-parameter conversion, no store charges. A
// demoted parameter's slot is empty unless the frame kept its object.
func (vm *VM) callFn(fnIdx int32, args []interp.Value) (interp.Value, bool, error) {
	fn := vm.Prog.Fns[fnIdx]
	if len(args) != len(fn.Params) {
		return interp.Value{}, false, fmt.Errorf("interp: %s called with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	fr := vm.getFrame(fnIdx)
	for i, p := range fn.Params {
		v := interp.ConvertFor(p.Type, args[i])
		if p.Reg >= 0 {
			fr.regs[p.Reg] = v
			continue
		}
		obj := fr.objs[p.Slot]
		if obj == nil {
			obj = interp.NewObject(p.Sym.Name, p.Type, 1, vm.m.SpaceOf(p.Sym))
			fr.objs[p.Slot] = obj
		}
		obj.Cells[0] = v
	}
	v, term, err := vm.exec(fn, fr)
	vm.putFrame(fn, fnIdx, fr)
	return v, term, err
}

// object resolves an objref against the frame and global pools.
func (vm *VM) object(fr *vmFrame, ref int32) (*interp.Object, error) {
	if ref < 0 {
		if obj := fr.objs[-ref-1]; obj != nil {
			return obj, nil
		}
		// A kernel slot the host did not populate, or (impossible for
		// compiled code) an unbound local.
		return nil, fmt.Errorf("interp: unresolved symbol %q", vm.freeSlotName(-ref-1))
	}
	if obj := vm.objs[ref]; obj != nil {
		return obj, nil
	}
	return nil, fmt.Errorf("interp: unresolved symbol %q", vm.Prog.Syms[ref].Name)
}

func (vm *VM) freeSlotName(slot int32) string {
	for _, f := range vm.Prog.Free {
		if f.Slot == slot {
			return f.Sym.Name
		}
	}
	return "?"
}

// exec runs one function's code to completion. The returned bool reports
// an explicit return (true) versus falling off the end (false) — the
// distinction the walker's ExecIn reports for kernel region statements.
func (vm *VM) exec(fn *Fn, fr *vmFrame) (interp.Value, bool, error) {
	code := fn.Code
	regs := fr.regs
	cost := vm.cost
	consts := vm.Prog.Consts
	syms := vm.syms
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case OpNop:
		case OpCharge:
			if err := vm.charge(in.D); err != nil {
				return interp.Value{}, false, err
			}
		case OpJmp:
			if in.D != 0 {
				if err := vm.charge(in.D); err != nil {
					return interp.Value{}, false, err
				}
			}
			pc = int(in.A) - 1
		case OpBr:
			if in.D != 0 {
				if err := vm.charge(in.D); err != nil {
					return interp.Value{}, false, err
				}
			}
			if regs[in.A].Truthy() {
				pc = int(in.B) - 1
			} else {
				pc = int(in.C) - 1
			}
		case OpRet:
			return interp.ConvertFor(fn.Ret, regs[in.A]), true, nil
		case OpRetZ:
			return interp.Value{}, false, nil
		case OpConst:
			regs[in.A] = consts[in.B]
		case OpMove:
			regs[in.A] = regs[in.B]
		case OpZero:
			regs[in.A] = interp.Value{}
		case OpBool:
			if regs[in.B].Truthy() {
				regs[in.A] = interp.IntVal(1)
			} else {
				regs[in.A] = interp.IntVal(0)
			}

		// The hottest arithmetic/comparison opcodes get inline fast paths
		// (dominant operand kinds, measured on the benchmark suite); every
		// other combination shares vm.binop's guarded dispatch.
		case OpAddI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = interp.IntVal(l.I + r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpSubI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = interp.IntVal(l.I - r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpMulI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = interp.IntVal(l.I * r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpEqI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = boolReg(l.I == r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpNeI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = boolReg(l.I != r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpLtI:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValInt && r.Kind == interp.ValInt {
				regs[in.A] = boolReg(l.I < r.I)
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpAddF:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValFloat && r.Kind == interp.ValFloat {
				regs[in.A] = interp.FloatVal(l.F() + r.F())
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpSubF:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValFloat && r.Kind == interp.ValFloat {
				regs[in.A] = interp.FloatVal(l.F() - r.F())
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpMulF:
			if l, r := regs[in.B], regs[in.C]; l.Kind == interp.ValFloat && r.Kind == interp.ValFloat {
				regs[in.A] = interp.FloatVal(l.F() * r.F())
			} else if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpDivI, OpModI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpLeI, OpGtI, OpGeI,
			OpDivF, OpEqF, OpNeF, OpLtF, OpLeF, OpGtF, OpGeF:
			if err := vm.binop(regs, in); err != nil {
				return interp.Value{}, false, err
			}
		case OpBin:
			v, err := interp.ApplyBinary(vm.Prog.Ops[in.D], regs[in.B], regs[in.C])
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = v
		case OpNeg:
			if v := regs[in.B]; v.Kind == interp.ValFloat {
				regs[in.A] = interp.FloatVal(-v.F())
			} else {
				regs[in.A] = interp.IntVal(-v.AsInt())
			}
		case OpNot:
			if regs[in.B].Truthy() {
				regs[in.A] = interp.IntVal(0)
			} else {
				regs[in.A] = interp.IntVal(1)
			}
		case OpBnot:
			regs[in.A] = interp.IntVal(^regs[in.B].AsInt())
		case OpAddN:
			if v := regs[in.B]; v.Kind == interp.ValInt {
				regs[in.A] = interp.IntVal(v.I + int64(in.C))
			} else {
				regs[in.A] = interp.AddInt(v, int64(in.C))
			}
		case OpCvt:
			regs[in.A] = interp.ConvertFor(vm.Prog.Types[in.C], regs[in.B])

		case OpLoadV:
			s := &syms[in.C]
			cost.Load(s.space, s.width)
			regs[in.A] = regs[in.B]
		case OpStoreV:
			s := &syms[in.C]
			if in.D == 0 {
				cost.Store(s.space, s.width)
			}
			v := regs[in.B]
			switch s.conv {
			case convLong:
				if v.Kind != interp.ValInt {
					v = interp.IntVal(v.AsInt())
				}
				regs[in.A] = v
			case convDouble:
				if v.Kind != interp.ValFloat {
					v = interp.FloatVal(v.AsFloat())
				}
				regs[in.A] = v
			case convInt:
				regs[in.A] = interp.IntVal(int64(int32(v.AsInt())))
			case convChar:
				regs[in.A] = interp.IntVal(int64(byte(v.AsInt())))
			case convPtr:
				if v.Kind != interp.ValPtr {
					v = interp.ConvertFor(vm.Prog.Syms[in.C].Type, v)
				}
				regs[in.A] = v
			case convNone:
				regs[in.A] = v
			default:
				regs[in.A] = interp.ConvertFor(vm.Prog.Syms[in.C].Type, v)
			}
		case OpLoadO:
			obj, err := vm.object(fr, in.B)
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = vm.cell(obj)
		case OpStoreO:
			obj, err := vm.object(fr, in.A)
			if err == nil {
				err = vm.m.StorePtr(interp.Pointer{Obj: obj}, regs[in.B])
			}
			if err != nil {
				return interp.Value{}, false, err
			}
		case OpAddrO:
			obj, err := vm.object(fr, in.B)
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = interp.PtrVal(interp.Pointer{Obj: obj})
		case OpAlloc:
			fr.objs[in.A] = vm.alloc(in, regs)
		case OpDefine:
			spec := &vm.Prog.Allocs[in.B]
			if spec.N < 0 {
				return interp.Value{}, false, fmt.Errorf("interp: array %q has unspecified length", spec.Name)
			}
			vm.objs[in.A] = vm.alloc(in, regs)
		case OpLoadP:
			v := regs[in.B]
			if in.D != 0 && (v.Kind != interp.ValPtr || v.P.IsNull()) {
				return interp.Value{}, false, fmt.Errorf("interp: %s: dereference of null or non-pointer", fn.Pos[pc])
			}
			lv, err := vm.m.LoadPtr(v.P)
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = lv
		case OpStoreP:
			v := regs[in.A]
			if in.D != 0 && (v.Kind != interp.ValPtr || v.P.IsNull()) {
				return interp.Value{}, false, fmt.Errorf("interp: %s: store through null or non-pointer", fn.Pos[pc])
			}
			if err := vm.m.StorePtr(v.P, regs[in.B]); err != nil {
				return interp.Value{}, false, err
			}
		case OpChkP:
			v := regs[in.B]
			if v.Kind != interp.ValPtr || v.P.IsNull() {
				return interp.Value{}, false, fmt.Errorf("interp: %s: store through null or non-pointer", fn.Pos[pc])
			}
			regs[in.A] = v
		case OpIdx:
			p, ok := elem(regs[in.C], regs[in.B], in.D)
			if !ok {
				return interp.Value{}, false, errIndex(fn, pc)
			}
			regs[in.A] = interp.PtrVal(p)
		case OpLoadAI:
			// addr.o, idx and load.p: an array's pointer is never null.
			obj, err := vm.object(fr, in.C)
			if err != nil {
				return interp.Value{}, false, err
			}
			v, err := vm.m.LoadPtr(interp.Pointer{Obj: obj, Off: int(regs[in.B].AsInt()) * int(in.D)})
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = v
		case OpLoadPI:
			// load.o, idx and load.p, in their event order.
			obj, err := vm.object(fr, in.C)
			if err != nil {
				return interp.Value{}, false, err
			}
			p, ok := elem(vm.cell(obj), regs[in.B], in.D)
			if !ok {
				return interp.Value{}, false, errIndex(fn, pc)
			}
			v, err := vm.m.LoadPtr(p)
			if err != nil {
				return interp.Value{}, false, err
			}
			regs[in.A] = v
		case OpStr:
			regs[in.A] = interp.PtrVal(interp.Pointer{Obj: vm.m.InternLiteral(vm.Prog.Strs[in.B])})
		case OpStdio:
			regs[in.A] = interp.PtrVal(interp.Pointer{Obj: vm.m.Stdio(vm.Prog.Strs[in.B])})

		case OpArg:
			vm.args = append(vm.args, regs[in.A])
		case OpCall:
			v, err := vm.call(in.B, int(in.C))
			if err != nil {
				return interp.Value{}, false, err
			}
			// The callee may have grown the shared arg stack; regs stays
			// valid (frame-owned), but re-read nothing else cached.
			regs[in.A] = v
		case OpLaunch:
			vm.launch(int(in.A))
			return interp.Value{}, false, errStopAtLaunch
		default:
			return interp.Value{}, false, fmt.Errorf("bytecode: invalid opcode %d", in.Op)
		}
	}
	return interp.Value{}, false, nil
}

// alloc creates the object of an alloc or define instruction, storing and
// charging its initializer if it has one.
func (vm *VM) alloc(in *Instr, regs []interp.Value) *interp.Object {
	spec := &vm.Prog.Allocs[in.B]
	obj := interp.NewObject(spec.Name, spec.Elem, int(spec.N), vm.m.SpaceOf(spec.Sym))
	if in.C >= 0 {
		vm.cost.Store(obj.Space, spec.Elem.Size())
		obj.Cells[0] = interp.ConvertFor(spec.Elem, regs[in.C])
	}
	return obj
}

// launch takes the argc object pointers a launch instruction pushed, one
// per free symbol, into a slot-indexed slice, and the globals, for Launch
// to return.
func (vm *VM) launch(argc int) {
	objs := make([]*interp.Object, vm.Prog.Fns[0].NumObjSlots)
	for i, f := range vm.Prog.Free[:argc] {
		objs[f.Slot] = vm.args[len(vm.args)-argc+i].P.Obj
	}
	vm.launched = &LaunchPoint{Slots: objs, Globals: vm.objs}
}

// charge makes the charge that a charge instruction or a transfer names:
// c is 1 + its index in the program's charge table.
func (vm *VM) charge(c int32) error {
	ch := &vm.Prog.Charges[c-1]
	if ch.Serial {
		// The steps, then one Op(1) per op, in the walker's event order.
		if ch.Steps > 0 {
			if err := vm.m.AddSteps(int64(ch.Steps)); err != nil {
				return err
			}
		}
		for i := int32(0); i < ch.Ops; i++ {
			vm.cost.Op(1)
		}
		return nil
	}
	if counting := vm.counting; counting != nil {
		// The totals are all a CountingSink keeps: add the list's
		// folded vector.
		counting.Op(int(ch.Ops))
		if ch.Traffic != 0 {
			vm.vecs[ch.Traffic-1].addTo(counting)
		}
	} else {
		if ch.Ops > 0 {
			vm.cost.Op(int(ch.Ops))
		}
		if ch.Traffic != 0 {
			vm.chargeEach(vm.Prog.Traffic[ch.Traffic-1])
		}
	}
	if ch.Steps > 0 {
		return vm.m.AddSteps(int64(ch.Steps))
	}
	return nil
}

// cell reads a scalar object's one cell and charges the Load (load.o).
func (vm *VM) cell(obj *interp.Object) interp.Value {
	vm.cost.Load(obj.Space, obj.Elem.Size())
	return obj.Cells[0]
}

// elem returns the pointer i elements of stride cells past base (idx),
// and false for a null or non-pointer base.
func elem(base, i interp.Value, stride int32) (interp.Pointer, bool) {
	if base.Kind != interp.ValPtr || base.P.IsNull() {
		return interp.Pointer{}, false
	}
	return interp.Pointer{Obj: base.P.Obj, Off: base.P.Off + int(i.AsInt())*int(stride)}, true
}

// errIndex is the error of subscripting a null or non-pointer at fn's
// instruction pc.
func errIndex(fn *Fn, pc int) error {
	return fmt.Errorf("interp: %s: index of null or non-pointer", fn.Pos[pc])
}

// chargeEach charges the tracked-variable accesses a charge folded one
// Load or Store call at a time, for a sink the image folded no vectors
// for.
func (vm *VM) chargeEach(acc []Access) {
	for _, a := range acc {
		s := &vm.syms[a.Sym]
		for i := int32(0); i < a.Loads; i++ {
			vm.cost.Load(s.space, s.width)
		}
		for i := int32(0); i < a.Stores; i++ {
			vm.cost.Store(s.space, s.width)
		}
	}
}

// binop executes one typed arithmetic/comparison opcode. Static types
// picked the opcode; runtime kind guards keep exactness (assignment
// expressions yield unconverted values, so kinds can drift) by falling
// back to interp.ApplyBinary, which also owns all trap error strings.
func (vm *VM) binop(regs []interp.Value, in *Instr) error {
	l, r := regs[in.B], regs[in.C]
	bothInt := l.Kind == interp.ValInt && r.Kind == interp.ValInt
	switch in.Op {
	case OpAddI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I + r.I)
			return nil
		}
		return vm.slowBin(regs, in, "+")
	case OpSubI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I - r.I)
			return nil
		}
		return vm.slowBin(regs, in, "-")
	case OpMulI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I * r.I)
			return nil
		}
		return vm.slowBin(regs, in, "*")
	case OpDivI:
		if bothInt && r.I != 0 {
			regs[in.A] = interp.IntVal(l.I / r.I)
			return nil
		}
		return vm.slowBin(regs, in, "/")
	case OpModI:
		if bothInt && r.I != 0 {
			regs[in.A] = interp.IntVal(l.I % r.I)
			return nil
		}
		return vm.slowBin(regs, in, "%")
	case OpAndI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I & r.I)
			return nil
		}
		return vm.slowBin(regs, in, "&")
	case OpOrI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I | r.I)
			return nil
		}
		return vm.slowBin(regs, in, "|")
	case OpXorI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I ^ r.I)
			return nil
		}
		return vm.slowBin(regs, in, "^")
	case OpShlI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I << uint(r.I&63))
			return nil
		}
		return vm.slowBin(regs, in, "<<")
	case OpShrI:
		if bothInt {
			regs[in.A] = interp.IntVal(l.I >> uint(r.I&63))
			return nil
		}
		return vm.slowBin(regs, in, ">>")
	case OpEqI:
		if bothInt {
			regs[in.A] = boolReg(l.I == r.I)
			return nil
		}
		return vm.slowBin(regs, in, "==")
	case OpNeI:
		if bothInt {
			regs[in.A] = boolReg(l.I != r.I)
			return nil
		}
		return vm.slowBin(regs, in, "!=")
	case OpLtI:
		if bothInt {
			regs[in.A] = boolReg(l.I < r.I)
			return nil
		}
		return vm.slowBin(regs, in, "<")
	case OpLeI:
		if bothInt {
			regs[in.A] = boolReg(l.I <= r.I)
			return nil
		}
		return vm.slowBin(regs, in, "<=")
	case OpGtI:
		if bothInt {
			regs[in.A] = boolReg(l.I > r.I)
			return nil
		}
		return vm.slowBin(regs, in, ">")
	case OpGeI:
		if bothInt {
			regs[in.A] = boolReg(l.I >= r.I)
			return nil
		}
		return vm.slowBin(regs, in, ">=")
	}

	// Float family: mirror applyBinary's promotion — either side float,
	// neither a pointer.
	if l.Kind == interp.ValPtr || r.Kind == interp.ValPtr ||
		(l.Kind != interp.ValFloat && r.Kind != interp.ValFloat) {
		return vm.slowBin(regs, in, floatOpStr(in.Op))
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch in.Op {
	case OpAddF:
		regs[in.A] = interp.FloatVal(lf + rf)
	case OpSubF:
		regs[in.A] = interp.FloatVal(lf - rf)
	case OpMulF:
		regs[in.A] = interp.FloatVal(lf * rf)
	case OpDivF:
		if rf == 0 {
			return vm.slowBin(regs, in, "/")
		}
		regs[in.A] = interp.FloatVal(lf / rf)
	case OpEqF:
		regs[in.A] = boolReg(lf == rf)
	case OpNeF:
		regs[in.A] = boolReg(lf != rf)
	case OpLtF:
		regs[in.A] = boolReg(lf < rf)
	case OpLeF:
		regs[in.A] = boolReg(lf <= rf)
	case OpGtF:
		regs[in.A] = boolReg(lf > rf)
	case OpGeF:
		regs[in.A] = boolReg(lf >= rf)
	default:
		return fmt.Errorf("bytecode: invalid typed opcode %d", in.Op)
	}
	return nil
}

func floatOpStr(op Op) string {
	switch op {
	case OpAddF:
		return "+"
	case OpSubF:
		return "-"
	case OpMulF:
		return "*"
	case OpDivF:
		return "/"
	case OpEqF:
		return "=="
	case OpNeF:
		return "!="
	case OpLtF:
		return "<"
	case OpLeF:
		return "<="
	case OpGtF:
		return ">"
	case OpGeF:
		return ">="
	}
	return "?"
}

func boolReg(b bool) interp.Value {
	if b {
		return interp.IntVal(1)
	}
	return interp.IntVal(0)
}

func (vm *VM) slowBin(regs []interp.Value, in *Instr, op string) error {
	v, err := interp.ApplyBinary(op, regs[in.B], regs[in.C])
	if err != nil {
		return err
	}
	regs[in.A] = v
	return nil
}

// call dispatches one OpCall with the interpreter's exact resolution
// order and overhead charges.
func (vm *VM) call(calleeIdx int32, argc int) (interp.Value, error) {
	base := len(vm.args) - argc
	args := vm.args[base:]
	lc := &vm.linked[calleeIdx]
	var v interp.Value
	var err error
	switch lc.kind {
	case ckBuiltin:
		vm.cost.Op(2)
		v, err = lc.impl(vm.m, args)
	case ckFn:
		vm.cost.Op(4)
		v, _, err = vm.callFn(lc.fnIdx, args)
	default:
		err = fmt.Errorf("interp: call of unknown function %q", vm.Prog.Callees[calleeIdx].Name)
	}
	vm.args = vm.args[:base]
	return v, err
}

// FragmentVM runs the entries of one kernel program (see
// Program.Entries) repeatedly against host-bound storage, in one frame:
// one object-slot table, whose free slots are bound once, and one
// register file sized for the largest entry, since no register is live
// across entries. The program functions the entries call run in the same
// VM. The GPU executor builds one per simulated map thread and one per
// combine warp, all over the launch's Image.
type FragmentVM struct {
	vm VM
	fr vmFrame
}

// NewFragmentVM binds one thread of a kernel launch to the launch's
// image. m is the thread's machine: its cost sink, step budget and
// memory spaces, which must place storage as the image's machine does.
// objs becomes the entries' object slots: it has one per slot of the
// kernel's table, and every free slot (Program.Free) must hold an object,
// or the construction fails. firstPrivate holds, by slot, the host
// objects whose cells the thread's fresh slot objects start with (nil
// where a slot starts with none). The entries and their callees read and
// write the thread's own copy of the image's globals and of everything
// these cells reach (see copyIn). No thread runs <init>, so initializers
// charge the device nothing.
func NewFragmentVM(m *interp.Machine, img *Image, objs, firstPrivate []*interp.Object) (*FragmentVM, error) {
	p := img.Prog
	if p.Entries == 0 {
		return nil, fmt.Errorf("bytecode: not a kernel program")
	}
	if len(objs) != int(p.Fns[0].NumObjSlots) {
		return nil, fmt.Errorf("bytecode: %d objects for a kernel of %d slots", len(objs), p.Fns[0].NumObjSlots)
	}
	for _, free := range p.Free {
		if objs[free.Slot] == nil {
			return nil, fmt.Errorf("bytecode: unbound kernel symbol %q", free.Sym.Name)
		}
	}
	regs := int32(0)
	for _, fn := range p.Fns[:p.Entries] {
		regs = max(regs, fn.NumRegs)
	}
	f := &FragmentVM{fr: vmFrame{regs: make([]interp.Value, regs), objs: objs}}
	f.vm.bind(m, img, int(img.threadFns), img.threadArgs)
	var globals []*interp.Object
	if p.Init >= 0 {
		globals = img.globals
	}
	f.vm.copyIn(globals, firstPrivate, objs)
	return f, nil
}

// copyIn gives the VM its own copy of what a launch hands one thread:
// each host global, by Syms index, in a fresh object in the machine's
// memory space for its symbol; each host object in from, by slot, in the
// thread's object at that slot of to; and every object these reach
// through pointer cells (an object an initializer or main allocated, a
// literal, one of main's locals), where the machine allocates. Copied
// pointers keep their offsets and point at the copies, through one
// host-to-copy map, built only when a copied cell holds a pointer. So no
// write of the VM reaches a host object, and two VMs of one launch share
// nothing.
func (vm *VM) copyIn(globals, from, to []*interp.Object) {
	pointers := false
	if globals != nil {
		vm.objs = make([]*interp.Object, len(vm.Prog.Syms))
	}
	for i, g := range globals {
		if g != nil {
			vm.objs[i] = interp.NewObject(g.Name, g.Elem, len(g.Cells), vm.syms[i].space)
			pointers = copyCells(vm.objs[i], g) || pointers
		}
	}
	for i, h := range from {
		if h != nil {
			pointers = copyCells(to[i], h) || pointers
		}
	}
	if !pointers {
		return
	}
	copies := map[*interp.Object]*interp.Object{}
	var todo []*interp.Object // copies whose pointer cells still hold host objects
	for i, g := range globals {
		if g != nil {
			copies[g] = vm.objs[i]
			todo = append(todo, vm.objs[i])
		}
	}
	for i, h := range from {
		if h != nil {
			copies[h] = to[i]
			todo = append(todo, to[i])
		}
	}
	for len(todo) > 0 {
		c := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for j := range c.Cells {
			p := &c.Cells[j].P
			if c.Cells[j].Kind != interp.ValPtr || p.Obj == nil {
				continue
			}
			cp, ok := copies[p.Obj]
			if !ok {
				cp = interp.NewObject(p.Obj.Name, p.Obj.Elem, len(p.Obj.Cells), vm.m.DefaultSpace())
				copyCells(cp, p.Obj)
				copies[p.Obj] = cp
				todo = append(todo, cp)
			}
			p.Obj = cp
		}
	}
}

// copyCells copies h's cells into c and reports whether one is a pointer
// to an object.
func copyCells(c, h *interp.Object) bool {
	copy(c.Cells, h.Cells)
	for _, v := range h.Cells {
		if v.Kind == interp.ValPtr && v.P.Obj != nil {
			return true
		}
	}
	return false
}

// Run executes entry Fns[entry] once. The bool reports whether a return
// statement terminated it (the walker's ExecIn contract); a condition entry returns
// the condition value.
func (f *FragmentVM) Run(entry int) (interp.Value, bool, error) {
	f.vm.refresh()
	return f.vm.exec(f.vm.Prog.Fns[entry], &f.fr)
}
