package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/interp"
)

// Disassemble renders a compiled program as human-readable text, one
// function per section. The format is stable: golden tests depend on it.
func Disassemble(p *Program) string {
	var b strings.Builder
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
		return fmt.Sprintf("ops=%d steps=%d", in.A, in.B)
	case OpJmp:
		return fmt.Sprintf("-> %d", in.A)
	case OpBr:
		return fmt.Sprintf("r%d ? %d : %d", in.A, in.B, in.C)
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
		return fmt.Sprintf("r%d, r%d (%s)", in.A, in.B, symString(p, in.C))
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
	case OpStr, OpStdio:
		return fmt.Sprintf("r%d, %q", in.A, pool(p.Strs, in.B))
	case OpCall:
		return fmt.Sprintf("r%d, %s, argc=%d", in.A, calleeString(p, in.B), in.C)
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
