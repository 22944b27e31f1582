package bytecode

import (
	"errors"
	"fmt"

	"repro/internal/minic"
)

// Bounds describes the pool and frame sizes instruction operands index
// into, for operand range verification.
type Bounds struct {
	NumRegs     int32
	NumObjSlots int32
	Consts      int32
	Strs        int32
	Types       int32
	Syms        int32
	Allocs      int32
	Ops         int32
	Callees     int32
	Charges     int32
	// Free is the argument count a launch must pass: a kernel program's
	// free symbol count, -1 outside a kernel program, which cannot launch.
	Free int32
}

// boundsFor derives verification bounds from a program and function.
func boundsFor(p *Program, fn *Fn) Bounds {
	free := int32(-1)
	if p.Entries > 0 {
		free = int32(len(p.Free))
	}
	return Bounds{
		NumRegs:     fn.NumRegs,
		NumObjSlots: fn.NumObjSlots,
		Consts:      int32(len(p.Consts)),
		Strs:        int32(len(p.Strs)),
		Types:       int32(len(p.Types)),
		Syms:        int32(len(p.Syms)),
		Allocs:      int32(len(p.Allocs)),
		Ops:         int32(len(p.Ops)),
		Callees:     int32(len(p.Callees)),
		Charges:     int32(len(p.Charges)),
		Free:        free,
	}
}

// Verify checks every compiled function's code for well-formedness:
// operand indices inside their pools, registers inside the frame, jump
// targets inside the code, charge-table entries that make sense, with
// totals that are their traffic list's sums, arithmetic that stores only
// into a variable whose conversion it makes inline, and no kept parameter
// whose object the code can point at. The compiler always emits
// verifiable code; the check guards decoded/fuzzed instruction streams
// and catches compiler regressions in tests.
func Verify(p *Program) error {
	if p.Main >= len(p.Fns) {
		return fmt.Errorf("bytecode: main index %d out of range", p.Main)
	}
	if p.Init >= len(p.Fns) || (p.Init >= 0 && (p.Init < p.Entries || len(p.Fns[p.Init].Params) != 0)) {
		return fmt.Errorf("bytecode: <init> index %d is not a parameterless function", p.Init)
	}
	// A kernel program's entries are Fns[0:Entries], parameterless and
	// sharing one slot table, which every free symbol indexes; its
	// callees may follow.
	if p.Entries < 0 || p.Entries > len(p.Fns) {
		return fmt.Errorf("bytecode: entry count %d out of range [0,%d]", p.Entries, len(p.Fns))
	}
	for _, fn := range p.Fns[:p.Entries] {
		if len(fn.Params) != 0 || fn.NumObjSlots != p.Fns[0].NumObjSlots {
			return fmt.Errorf("bytecode: %s: kernel entry with parameters or a slot table of its own", fn.Name)
		}
	}
	for _, f := range p.Free {
		if p.Entries == 0 || f.Slot < 0 || f.Slot >= p.Fns[0].NumObjSlots {
			return fmt.Errorf("bytecode: free symbol %q outside the kernel slot table", f.Sym.Name)
		}
	}
	for i, c := range p.Charges {
		var err error
		if c.Ops < 0 || c.Steps < 0 {
			err = errors.New("negative charge")
		} else if c.Traffic < 0 || int(c.Traffic) > len(p.Traffic) || (c.Serial && c.Traffic != 0) {
			err = fmt.Errorf("traffic %d out of range [0,%d]", c.Traffic, len(p.Traffic))
		} else if loads, stores := trafficSums(p, c.Traffic); c.Loads != loads || c.Stores != stores {
			err = fmt.Errorf("totals %d loads %d stores, traffic %d loads %d stores", c.Loads, c.Stores, loads, stores)
		}
		if err != nil {
			return fmt.Errorf("bytecode: charge %d: %w", i+1, err)
		}
	}
	for _, fn := range p.Fns {
		for _, prm := range fn.Params {
			if prm.Reg < 0 && prm.Slot < 0 {
				return fmt.Errorf("bytecode: %s: parameter with no location", fn.Name)
			}
			if prm.Reg >= fn.NumRegs || prm.Slot >= fn.NumObjSlots {
				return fmt.Errorf("bytecode: %s: parameter location out of range", fn.Name)
			}
			if prm.Kept && (prm.Slot < 0 || slotEscapes(fn.Code, prm.Slot)) {
				return fmt.Errorf("bytecode: %s: parameter %s is kept, but its object can escape", fn.Name, prm.Sym.Name)
			}
		}
		if err := VerifyCode(fn.Code, boundsFor(p, fn)); err != nil {
			return fmt.Errorf("bytecode: %s: %w", fn.Name, err)
		}
		for pc, in := range fn.Code {
			if err := fusedStore(p, in); err != nil {
				return fmt.Errorf("bytecode: %s: pc %d (%s): %w", fn.Name, pc, in.Op.Name(), err)
			}
		}
	}
	return nil
}

// trafficSums returns the loads and stores of charge operand c's traffic
// list, none for 0.
func trafficSums(p *Program, c int32) (loads, stores int32) {
	if c == 0 {
		return 0, 0
	}
	for _, a := range p.Traffic[c-1] {
		loads += a.Loads
		stores += a.Stores
	}
	return loads, stores
}

// fusedStore checks the variable an arithmetic instruction's operand D
// stores into, whose range VerifyCode checked: a long (D > 0) or an int
// (D < 0) for an integer opcode, a double for a float one.
func fusedStore(p *Program, in Instr) error {
	if in.D == 0 {
		return nil
	}
	want := minic.LongType
	switch in.Op {
	case OpAddI, OpSubI, OpMulI, OpAddN:
		if in.D < 0 {
			want = minic.IntType
		}
	case OpAddF, OpSubF, OpMulF:
		want = minic.DoubleType
	default:
		return nil
	}
	sym := p.Syms[max(in.D, -in.D)-1]
	if sym.Type == nil || sym.Type.Kind != want.Kind {
		return fmt.Errorf("stores into %s, which is not a %s", sym.Name, want)
	}
	return nil
}

// VerifyCode checks one instruction sequence against operand bounds.
func VerifyCode(code []Instr, b Bounds) error {
	n := int32(len(code))
	reg := func(r int32) error {
		if r < 0 || r >= b.NumRegs {
			return fmt.Errorf("register r%d out of range [0,%d)", r, b.NumRegs)
		}
		return nil
	}
	target := func(t int32) error {
		// Branching to n (one past the end) is a valid fall-off exit.
		if t < 0 || t > n {
			return fmt.Errorf("jump target %d out of range [0,%d]", t, n)
		}
		return nil
	}
	idx := func(what string, i, limit int32) error {
		if i < 0 || i >= limit {
			return fmt.Errorf("%s index %d out of range [0,%d)", what, i, limit)
		}
		return nil
	}
	objRef := func(ref int32) error {
		if ref < 0 {
			return idx("object slot", -ref-1, b.NumObjSlots)
		}
		return idx("symbol", ref, b.Syms)
	}
	// variable checks an arithmetic instruction's operand D: 0, or the
	// variable it stores into, 1 + a symbol index, negated for an int
	// (integer opcodes only).
	variable := func(d int32, negative bool) error {
		if d < 0 && negative {
			d = -d
		}
		if d == 0 {
			return nil
		}
		return idx("stored symbol", d-1, b.Syms)
	}
	// charge checks a charge operand, 1 + a charge-table index; a
	// transfer may name none (0).
	charge := func(c int32, optional bool) error {
		if c == 0 && optional {
			return nil
		}
		if c < 1 || c > b.Charges {
			return fmt.Errorf("charge %d out of range [1,%d]", c, b.Charges)
		}
		return nil
	}

	for pc, in := range code {
		var err error
		switch in.Op {
		case OpNop, OpRetZ:
		case OpCharge:
			err = charge(in.D, false)
		case OpJmp:
			err = firstErr(target(in.A), charge(in.D, true))
		case OpBr:
			err = firstErr(reg(in.A), target(in.B), target(in.C), charge(in.D, true))
		case OpRet, OpArg, OpZero:
			err = reg(in.A)
		case OpConst:
			err = firstErr(reg(in.A), idx("const", in.B, b.Consts))
		case OpMove, OpBool, OpNeg, OpNot, OpBnot, OpChkP:
			err = firstErr(reg(in.A), reg(in.B))
		case OpAddI, OpSubI, OpMulI:
			err = firstErr(reg(in.A), reg(in.B), reg(in.C), variable(in.D, true))
		case OpAddF, OpSubF, OpMulF:
			err = firstErr(reg(in.A), reg(in.B), reg(in.C), variable(in.D, false))
		case OpDivI, OpModI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI,
			OpEqI, OpNeI, OpLtI, OpLeI, OpGtI, OpGeI,
			OpDivF, OpEqF, OpNeF, OpLtF, OpLeF, OpGtF, OpGeF:
			err = firstErr(reg(in.A), reg(in.B), reg(in.C))
		case OpEqIC, OpNeIC, OpLtIC, OpLeIC, OpGtIC, OpGeIC:
			err = firstErr(reg(in.A), reg(in.B))
		case OpBin:
			err = firstErr(reg(in.A), reg(in.B), reg(in.C), idx("operator", in.D, b.Ops))
		case OpAddN:
			err = firstErr(reg(in.A), reg(in.B), variable(in.D, true))
		case OpCvt:
			err = firstErr(reg(in.A), reg(in.B), idx("type", in.C, b.Types))
		case OpLoadV:
			err = firstErr(reg(in.A), reg(in.B), idx("symbol", in.C, b.Syms))
		case OpStoreV:
			err = firstErr(reg(in.A), reg(in.B), idx("symbol", in.C, b.Syms))
			if err == nil && in.D != 0 && in.D != 1 {
				err = fmt.Errorf("store mode %d", in.D)
			}
		case OpLoadO, OpAddrO:
			err = firstErr(reg(in.A), objRef(in.B))
		case OpStoreO:
			err = firstErr(objRef(in.A), reg(in.B))
		case OpAlloc:
			err = firstErr(idx("object slot", in.A, b.NumObjSlots), idx("alloc spec", in.B, b.Allocs))
			if err == nil && in.C >= 0 {
				err = reg(in.C)
			}
		case OpLoadP, OpStoreP:
			err = firstErr(reg(in.A), reg(in.B))
		case OpIdx:
			err = firstErr(reg(in.A), reg(in.B), reg(in.C))
		case OpLoadAI, OpLoadPI:
			err = firstErr(reg(in.A), reg(in.B), objRef(in.C))
		case OpStr, OpStdio:
			err = firstErr(reg(in.A), idx("string", in.B, b.Strs))
		case OpCall:
			err = firstErr(reg(in.A), idx("callee", in.B, b.Callees))
			if err == nil && in.C < 0 {
				err = errors.New("negative arg count")
			}
		case OpDefine:
			err = firstErr(idx("symbol", in.A, b.Syms), idx("alloc spec", in.B, b.Allocs))
			if err == nil && in.C >= 0 {
				err = reg(in.C)
			}
		case OpLaunch:
			if in.A != b.Free {
				err = fmt.Errorf("launch with %d objects, want one per free symbol (%d)", in.A, b.Free)
			}
		default:
			err = fmt.Errorf("invalid opcode %d", in.Op)
		}
		if err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, in.Op.Name(), err)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
