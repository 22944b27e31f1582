package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/interp"
)

// Disassemble renders a compiled program as human-readable text, one
// function per section. A kernel program opens with its entry count and
// the slots of its free symbols. The format is stable: golden tests
// depend on it.
func Disassemble(p *Program) string {
	var b strings.Builder
	if p.Entries > 0 {
		fmt.Fprintf(&b, "kernel entries=%d free", p.Entries)
		for _, f := range p.Free {
			fmt.Fprintf(&b, " slot%d=%s", f.Slot, f.Sym.Name)
		}
		b.WriteString("\n")
	}
	for i, fn := range p.Fns {
		if i > 0 {
			b.WriteByte('\n')
		}
		disasmFn(&b, p, fn)
	}
	return b.String()
}

func disasmFn(b *strings.Builder, p *Program, fn *Fn) {
	fmt.Fprintf(b, "fn %s (regs=%d slots=%d params=%d)\n", fn.Name, fn.NumRegs, fn.NumObjSlots, len(fn.Params))
	for _, prm := range fn.Params {
		if prm.Reg >= 0 {
			fmt.Fprintf(b, "  param %s -> r%d\n", prm.Sym.Name, prm.Reg)
		} else {
			fmt.Fprintf(b, "  param %s -> slot%d\n", prm.Sym.Name, prm.Slot)
		}
	}
	for pc, in := range fn.Code {
		fmt.Fprintf(b, "  %4d  %-8s %s\n", pc, in.Op.Name(), operandString(p, in))
	}
}

func operandString(p *Program, in Instr) string {
	switch in.Op {
	case OpNop, OpRetZ:
		return ""
	case OpCharge:
		return chargeString(p, in.D)
	case OpJmp:
		return fmt.Sprintf("-> %d", in.A) + carried(p, in.D)
	case OpBr:
		return fmt.Sprintf("r%d ? %d : %d", in.A, in.B, in.C) + carried(p, in.D)
	case OpRet, OpArg:
		return fmt.Sprintf("r%d", in.A)
	case OpConst:
		return fmt.Sprintf("r%d, %s", in.A, constString(p, in.B))
	case OpMove, OpBool, OpNeg, OpNot, OpBnot, OpChkP:
		return fmt.Sprintf("r%d, r%d", in.A, in.B)
	case OpZero:
		return fmt.Sprintf("r%d", in.A)
	case OpBin:
		return fmt.Sprintf("r%d, r%d, r%d, %q", in.A, in.B, in.C, pool(p.Ops, in.D))
	case OpAddN:
		return fmt.Sprintf("r%d, r%d, %+d", in.A, in.B, in.C)
	case OpCvt:
		return fmt.Sprintf("r%d, r%d, %s", in.A, in.B, typeString(p, in.C))
	case OpLoadV:
		return fmt.Sprintf("r%d, r%d (%s)", in.A, in.B, symString(p, in.C))
	case OpStoreV:
		s := fmt.Sprintf("r%d, r%d (%s)", in.A, in.B, symString(p, in.C))
		if in.D != 0 {
			s += " folded"
		}
		return s
	case OpLoadO, OpAddrO:
		return fmt.Sprintf("r%d, %s", in.A, objRefString(p, in.B))
	case OpStoreO:
		return fmt.Sprintf("%s, r%d", objRefString(p, in.A), in.B)
	case OpAlloc:
		s := fmt.Sprintf("slot%d, %s", in.A, allocString(p, in.B))
		if in.C >= 0 {
			s += fmt.Sprintf(", init=r%d", in.C)
		}
		return s
	case OpLoadP:
		s := fmt.Sprintf("r%d, r%d", in.A, in.B)
		if in.D != 0 {
			s += ", chk"
		}
		return s
	case OpStoreP:
		s := fmt.Sprintf("r%d, r%d", in.A, in.B)
		if in.D != 0 {
			s += ", chk"
		}
		return s
	case OpIdx:
		return fmt.Sprintf("r%d, r%d, r%d, stride=%d", in.A, in.B, in.C, in.D)
	case OpLoadAI, OpLoadPI:
		s := fmt.Sprintf("r%d, %s[r%d]", in.A, objRefString(p, in.C), in.B)
		if in.D != 1 {
			s += fmt.Sprintf(", stride=%d", in.D)
		}
		return s
	case OpStr, OpStdio:
		return fmt.Sprintf("r%d, %q", in.A, pool(p.Strs, in.B))
	case OpCall:
		return fmt.Sprintf("r%d, %s, argc=%d", in.A, calleeString(p, in.B), in.C)
	case OpDefine:
		s := fmt.Sprintf("%s, %s", objRefString(p, in.A), allocString(p, in.B))
		if in.C >= 0 {
			s += fmt.Sprintf(", init=r%d", in.C)
		}
		return s
	case OpLaunch:
		return fmt.Sprintf("argc=%d", in.A)
	default:
		// Typed arithmetic/comparison family.
		return fmt.Sprintf("r%d, r%d, r%d", in.A, in.B, in.C)
	}
}

func pool(ss []string, i int32) string {
	if i < 0 || int(i) >= len(ss) {
		return "<bad>"
	}
	return ss[i]
}

func constString(p *Program, i int32) string {
	if i < 0 || int(i) >= len(p.Consts) {
		return "<bad const>"
	}
	v := p.Consts[i]
	switch v.Kind {
	case interp.ValFloat:
		return fmt.Sprintf("%g", v.F())
	case interp.ValPtr:
		return "ptr"
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

func typeString(p *Program, i int32) string {
	if i < 0 || int(i) >= len(p.Types) {
		return "<bad type>"
	}
	if t := p.Types[i]; t != nil {
		return t.String()
	}
	return "<nil>"
}

func symString(p *Program, i int32) string {
	if i < 0 || int(i) >= len(p.Syms) {
		return "<bad sym>"
	}
	return p.Syms[i].Name
}

// chargeString renders charge-table entry c-1 as a charge instruction
// lists it: "ops=4 steps=1 load i", or "ops=2 steps=1 serial".
func chargeString(p *Program, c int32) string {
	if c <= 0 || int(c) > len(p.Charges) {
		return "<bad charge>"
	}
	ch := p.Charges[c-1]
	if ch.Serial {
		return fmt.Sprintf("ops=%d steps=%d serial", ch.Ops, ch.Steps)
	}
	return fmt.Sprintf("ops=%d steps=%d", ch.Ops, ch.Steps) + trafficString(p, ch.Traffic)
}

// carried renders the charge a transfer carries, if any, after its
// operands: "  charge ops=4 steps=0 load i".
func carried(p *Program, c int32) string {
	if c == 0 {
		return ""
	}
	return "  charge " + chargeString(p, c)
}

// trafficString lists a charge's folded accesses by symbol, loads then
// stores, with a count past one: " load i*2 n store i".
func trafficString(p *Program, c int32) string {
	if c <= 0 || int(c) > len(p.Traffic) {
		if c != 0 {
			return " <bad traffic>"
		}
		return ""
	}
	var b strings.Builder
	for _, store := range []bool{false, true} {
		kind := " load"
		if store {
			kind = " store"
		}
		for _, a := range p.Traffic[c-1] {
			n := a.Loads
			if store {
				n = a.Stores
			}
			if n == 0 {
				continue
			}
			b.WriteString(kind)
			kind = ""
			b.WriteString(" " + symString(p, a.Sym))
			if n > 1 {
				fmt.Fprintf(&b, "*%d", n)
			}
		}
	}
	return b.String()
}

func objRefString(p *Program, ref int32) string {
	if ref < 0 {
		return fmt.Sprintf("slot%d", -ref-1)
	}
	return fmt.Sprintf("global %s", symString(p, ref))
}

func allocString(p *Program, i int32) string {
	if i < 0 || int(i) >= len(p.Allocs) {
		return "<bad alloc>"
	}
	a := p.Allocs[i]
	return fmt.Sprintf("%s[%d]", a.Name, a.N)
}

func calleeString(p *Program, i int32) string {
	if i < 0 || int(i) >= len(p.Callees) {
		return "<bad callee>"
	}
	c := p.Callees[i]
	if c.Builtin {
		return c.Name + "!"
	}
	return c.Name
}
