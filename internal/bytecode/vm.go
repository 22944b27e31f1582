package bytecode

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/minic"
)

// VM executes compiled bytecode against an interp.Machine, which keeps
// owning all state: object memory, globals, the builtin table, cost
// charging, and the step budget. One VM serves one machine; it is not
// safe for concurrent use (neither is the machine).
type VM struct {
	Prog *Program
	m    *interp.Machine

	// cost is refreshed from the machine on every entry: the GPU executor
	// swaps the machine's cost sink per simulated thread.
	cost interp.CostSink

	// Per-pool caches resolved against this machine.
	objs     []*interp.Object // by Syms index (globals; nil for locals)
	symSpace []interp.MemSpace
	symWidth []int
	symType  []*minic.Type
	symConv  []uint8
	resolved bool

	linked []linkedCallee
	pools  [][]*vmFrame
	args   []interp.Value
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
	ckUnresolved calleeKind = iota
	ckBuiltin
	ckFn
	ckDecl
	ckUnknown
)

type linkedCallee struct {
	kind  calleeKind
	impl  interp.Builtin
	fnIdx int32
	decl  *minic.FuncDecl
}

type vmFrame struct {
	regs []interp.Value
	objs []*interp.Object
}

// NewVM builds an executor binding p to m. Call targets are resolved
// lazily on first call, so builtins installed after NewVM still resolve.
func NewVM(m *interp.Machine, p *Program) *VM {
	vm := &VM{
		Prog:     p,
		m:        m,
		linked:   make([]linkedCallee, len(p.Callees)),
		pools:    make([][]*vmFrame, len(p.Fns)),
		args:     make([]interp.Value, 0, 16),
		objs:     make([]*interp.Object, len(p.Syms)),
		symSpace: make([]interp.MemSpace, len(p.Syms)),
		symWidth: make([]int, len(p.Syms)),
		symType:  make([]*minic.Type, len(p.Syms)),
		symConv:  make([]uint8, len(p.Syms)),
	}
	for i, sym := range p.Syms {
		vm.symSpace[i] = m.SpaceOf(sym)
		vm.symType[i] = sym.Type
		vm.symConv[i] = convCodeFor(sym.Type)
		if sym.Type != nil {
			vm.symWidth[i] = sym.Type.Size()
		}
	}
	return vm
}

// refresh re-reads the machine's per-run cost sink.
func (vm *VM) refresh() {
	vm.cost = vm.m.Cost()
}

// resolveGlobals binds global symbol indices to their storage. Must run
// after InitGlobals; unresolved entries stay nil and trip the walker's
// "unresolved symbol" error on access.
func (vm *VM) resolveGlobals() {
	if vm.resolved {
		return
	}
	vm.resolved = true
	for i, sym := range vm.Prog.Syms {
		if sym.Global {
			vm.objs[i] = vm.m.GlobalObject(sym)
		}
	}
}

// Run mirrors Machine.Run: init globals, execute main, unwrap exit().
func (vm *VM) Run() (int, error) {
	if err := vm.m.InitGlobals(); err != nil {
		return 0, err
	}
	if vm.Prog.Main < 0 {
		return 0, errors.New("interp: program has no main function")
	}
	vm.refresh()
	vm.resolveGlobals()
	v, _, err := vm.callFn(int32(vm.Prog.Main), nil)
	if code, ok := interp.ExitStatus(err); ok {
		return code, nil
	}
	if err != nil {
		return 0, err
	}
	return int(v.AsInt()), nil
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

func (vm *VM) putFrame(fnIdx int32, fr *vmFrame) {
	// Registers need no clearing (every read is dominated by a write);
	// object slots are nilled so pooled frames don't retain dead arrays.
	for i := range fr.objs {
		fr.objs[i] = nil
	}
	vm.pools[fnIdx] = append(vm.pools[fnIdx], fr)
}

// callFn invokes a compiled function with the walker's exact call
// semantics: arity check, per-parameter conversion, no store charges.
func (vm *VM) callFn(fnIdx int32, args []interp.Value) (interp.Value, bool, error) {
	fn := vm.Prog.Fns[fnIdx]
	if len(args) != len(fn.Params) {
		return interp.Value{}, false, fmt.Errorf("interp: %s called with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	fr := vm.getFrame(fnIdx)
	for i, p := range fn.Params {
		if p.Reg >= 0 {
			fr.regs[p.Reg] = interp.ConvertFor(p.Type, args[i])
			continue
		}
		obj := interp.NewObject(p.Sym.Name, p.Type, 1, vm.m.SpaceOf(p.Sym))
		obj.Cells[0] = interp.ConvertFor(p.Type, args[i])
		fr.objs[p.Slot] = obj
	}
	v, term, err := vm.exec(fn, fr)
	vm.putFrame(fnIdx, fr)
	return v, term, err
}

// object resolves an objref against the frame and global pools.
func (vm *VM) object(fr *vmFrame, ref int32) (*interp.Object, error) {
	if ref < 0 {
		if obj := fr.objs[-ref-1]; obj != nil {
			return obj, nil
		}
		// A fragment slot the host did not populate, or (impossible for
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
// distinction ExecIn exposes for kernel region statements.
func (vm *VM) exec(fn *Fn, fr *vmFrame) (interp.Value, bool, error) {
	code := fn.Code
	regs := fr.regs
	cost := vm.cost
	consts := vm.Prog.Consts
	symSpace, symWidth, symConv := vm.symSpace, vm.symWidth, vm.symConv
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case OpNop:
		case OpCharge:
			if in.A > 0 {
				cost.Op(int(in.A))
			}
			if in.B > 0 {
				if err := vm.m.AddSteps(int64(in.B)); err != nil {
					return interp.Value{}, false, err
				}
			}
		case OpJmp:
			pc = int(in.A) - 1
		case OpBr:
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
			cost.Load(symSpace[in.C], symWidth[in.C])
			regs[in.A] = regs[in.B]
		case OpStoreV:
			cost.Store(symSpace[in.C], symWidth[in.C])
			v := regs[in.B]
			switch symConv[in.C] {
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
					v = interp.ConvertFor(vm.symType[in.C], v)
				}
				regs[in.A] = v
			case convNone:
				regs[in.A] = v
			default:
				regs[in.A] = interp.ConvertFor(vm.symType[in.C], v)
			}
		case OpLoadO:
			obj, err := vm.object(fr, in.B)
			if err != nil {
				return interp.Value{}, false, err
			}
			cost.Load(obj.Space, obj.Elem.Size())
			regs[in.A] = obj.Cells[0]
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
			spec := vm.Prog.Allocs[in.B]
			obj := interp.NewObject(spec.Name, spec.Elem, int(spec.N), vm.m.SpaceOf(spec.Sym))
			fr.objs[in.A] = obj
			if in.C >= 0 {
				cost.Store(obj.Space, spec.Elem.Size())
				obj.Cells[0] = interp.ConvertFor(spec.Elem, regs[in.C])
			}
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
			base := regs[in.C]
			if base.Kind != interp.ValPtr || base.P.IsNull() {
				return interp.Value{}, false, fmt.Errorf("interp: %s: index of null or non-pointer", fn.Pos[pc])
			}
			i := int(regs[in.B].AsInt())
			regs[in.A] = interp.PtrVal(interp.Pointer{Obj: base.P.Obj, Off: base.P.Off + i*int(in.D)})
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
		default:
			return interp.Value{}, false, fmt.Errorf("bytecode: invalid opcode %d", in.Op)
		}
	}
	return interp.Value{}, false, nil
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
	if lc.kind == ckUnresolved {
		vm.resolve(calleeIdx)
	}
	var v interp.Value
	var err error
	switch lc.kind {
	case ckBuiltin:
		vm.cost.Op(2)
		v, err = lc.impl(vm.m, args)
	case ckFn:
		vm.cost.Op(4)
		v, _, err = vm.callFn(lc.fnIdx, args)
	case ckDecl:
		vm.cost.Op(4)
		v, err = vm.m.CallDecl(lc.decl, args)
	default:
		err = fmt.Errorf("interp: call of unknown function %q", vm.Prog.Callees[calleeIdx].Name)
	}
	vm.args = vm.args[:base]
	return v, err
}

// resolve links one callee with evalCall's dispatch order: sema-marked
// builtins first, then program functions, then intrinsics installed
// without sema marking, else unknown. A kernel fragment compiles no
// program functions, so its calls run on the walker (ckDecl): the GPU
// thread cost adds float cycles at every charge, which makes the walker's
// unbatched charge order part of virtual time.
func (vm *VM) resolve(calleeIdx int32) {
	c := vm.Prog.Callees[calleeIdx]
	lc := &vm.linked[calleeIdx]
	impl, hasBuiltin := vm.m.BuiltinNamed(c.Name)
	if hasBuiltin && c.Builtin {
		lc.kind, lc.impl = ckBuiltin, impl
		return
	}
	if decl := vm.m.Prog.Func(c.Name); decl != nil {
		for i, f := range vm.Prog.Fns {
			if f.Decl == decl {
				lc.kind, lc.fnIdx = ckFn, int32(i)
				return
			}
		}
		lc.kind, lc.decl = ckDecl, decl
		return
	}
	if hasBuiltin {
		lc.kind, lc.impl = ckBuiltin, impl
		return
	}
	lc.kind = ckUnknown
}

// FragmentVM executes one compiled kernel fragment (a loop condition, a
// loop body, or a combine region) repeatedly against host-bound storage.
// The GPU executor builds one per simulated thread context and swaps the
// machine's cost sink before each entry.
type FragmentVM struct {
	vm *VM
	fr *vmFrame
}

// NewFragmentVM binds a fragment program to a machine, resolving every
// free symbol through lookup (typically the thread frame first, then the
// machine's globals). A nil resolution fails the construction.
func NewFragmentVM(m *interp.Machine, p *Program, lookup func(*minic.Symbol) *interp.Object) (*FragmentVM, error) {
	if p == nil || !p.Fragment || len(p.Fns) != 1 {
		return nil, fmt.Errorf("bytecode: not an executable fragment")
	}
	// EvalIn/ExecIn run global initializers on every entry (idempotent);
	// run them once here so free globals are allocated before binding.
	if err := m.InitGlobals(); err != nil {
		return nil, err
	}
	vm := NewVM(m, p)
	fn := p.Fns[0]
	fr := &vmFrame{
		regs: make([]interp.Value, fn.NumRegs),
		objs: make([]*interp.Object, fn.NumObjSlots),
	}
	for _, free := range p.Free {
		obj := lookup(free.Sym)
		if obj == nil {
			return nil, fmt.Errorf("bytecode: unbound fragment symbol %q", free.Sym.Name)
		}
		fr.objs[free.Slot] = obj
	}
	return &FragmentVM{vm: vm, fr: fr}, nil
}

// Run executes the fragment once. The bool reports whether a return
// statement terminated it (ExecIn's contract); condition fragments return
// the condition value.
func (f *FragmentVM) Run() (interp.Value, bool, error) {
	f.vm.refresh()
	return f.vm.exec(f.vm.Prog.Fns[0], f.fr)
}
