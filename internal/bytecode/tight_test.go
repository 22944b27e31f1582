package bytecode_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/mr"
	"repro/internal/workload"
)

// TestTable2CodeIsTight checks every Table-2 stage program, host and
// kernel, at -O0 and optimized, for dispatches that do no MiniC work:
// a jmp to the next instruction, a jump or branch landing on a jmp that
// carries no charge (one that carries a charge does work), an
// unreachable instruction, a charge directly before a jmp or br no jump
// lands on, an addr.o or load.o whose value only the idx and load.p
// right after it read, which one load.ai or load.pi does, a folded
// store.v of the single-use temporary the arithmetic right before it
// computed, when that arithmetic can make the store's conversion, and a
// const whose only use is the right operand of the int compare after it.
func TestTable2CodeIsTight(t *testing.T) {
	for _, b := range workload.All() {
		for _, disable := range []bool{true, false} {
			job := b.JobFor(1)
			job.DisableOpt = disable
			cj, err := mr.CompileJob(job)
			if err != nil {
				t.Fatalf("%s: %v", b.Code, err)
			}
			progs := map[string]*bytecode.Program{"map": cj.MapC.VM, "map kernel": cj.MapC.KernelVM}
			if cj.CombineC != nil {
				progs["combine"], progs["combine kernel"] = cj.CombineC.VM, cj.CombineC.KernelVM
			}
			if cj.ReduceF != nil {
				progs["reduce"] = cj.ReduceF.Code
			}
			for name, p := range progs {
				if p == nil {
					continue
				}
				for _, fn := range p.Fns {
					if err := loose(p, fn.Code); err != nil {
						t.Errorf("%s %s (-O0 %v) %s: %v", b.Code, name, disable, fn.Name, err)
					}
				}
			}
		}
	}
}

// loose returns the first dispatch in code, a function of p, that does no
// MiniC work.
func loose(p *bytecode.Program, code []bytecode.Instr) error {
	n := int32(len(code))
	targeted := make([]bool, n+1)
	for _, in := range code {
		for _, t := range targets(in) {
			targeted[t] = true
		}
	}
	reached := make([]bool, n+1)
	work := []int32{0}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc >= n || reached[pc] {
			continue
		}
		reached[pc] = true
		in := code[pc]
		work = append(work, targets(in)...)
		switch in.Op {
		case bytecode.OpJmp, bytecode.OpBr, bytecode.OpRet, bytecode.OpRetZ, bytecode.OpLaunch:
		default:
			work = append(work, pc+1)
		}
	}
	for pc, in := range code {
		pc := int32(pc)
		switch {
		case !reached[pc]:
			return fmt.Errorf("pc %d (%s) is unreachable", pc, in.Op.Name())
		case in.Op == bytecode.OpJmp && in.A == pc+1:
			return fmt.Errorf("pc %d jumps to the next instruction", pc)
		case in.Op == bytecode.OpCharge && pc+1 < n && !targeted[pc+1] &&
			(code[pc+1].Op == bytecode.OpJmp || code[pc+1].Op == bytecode.OpBr):
			return fmt.Errorf("pc %d charges just before the %s no jump lands on", pc, code[pc+1].Op.Name())
		case (in.Op == bytecode.OpAddrO || in.Op == bytecode.OpLoadO) && pc+2 < n &&
			code[pc+1].Op == bytecode.OpIdx && code[pc+1].C == in.A &&
			code[pc+2].Op == bytecode.OpLoadP && code[pc+2].D == 0 && code[pc+2].B == code[pc+1].A &&
			!live(code, in.A, pc+1):
			return fmt.Errorf("pc %d: %s, idx and load.p are not fused", pc, in.Op.Name())
		case in.Op == bytecode.OpStoreV && in.D == 1 && pc > 0 && !targeted[pc] &&
			code[pc-1].A == in.B && storesInline(code[pc-1], p.Syms[in.C].Type) && !live(code, in.B, pc):
			return fmt.Errorf("pc %d: %s and store.v are not fused", pc, code[pc-1].Op.Name())
		case in.Op == bytecode.OpConst && pc+1 < n && !targeted[pc+1] && intCompare(code[pc+1].Op) &&
			code[pc+1].C == in.A && code[pc+1].B != in.A && int32Const(p.Consts[in.B]) && !live(code, in.A, pc+1):
			return fmt.Errorf("pc %d: const and %s are not fused", pc, code[pc+1].Op.Name())
		}
		for _, t := range targets(in) {
			if t < n && code[t].Op == bytecode.OpJmp && code[t].D == 0 {
				return fmt.Errorf("pc %d lands on the jmp at %d", pc, t)
			}
		}
	}
	return nil
}

// storesInline reports whether in is arithmetic that stores no variable
// and can store its result into a variable of type t: an integer opcode
// into an int or a long, a float one into a double.
func storesInline(in bytecode.Instr, t *minic.Type) bool {
	if in.D != 0 || t == nil {
		return false
	}
	switch in.Op {
	case bytecode.OpAddI, bytecode.OpSubI, bytecode.OpMulI, bytecode.OpAddN:
		return t.Kind == minic.TypeInt || t.Kind == minic.TypeLong
	case bytecode.OpAddF, bytecode.OpSubF, bytecode.OpMulF:
		return t.Kind == minic.TypeDouble
	}
	return false
}

// intCompare reports whether op is a typed int compare of two registers.
func intCompare(op bytecode.Op) bool {
	switch op {
	case bytecode.OpEqI, bytecode.OpNeI, bytecode.OpLtI, bytecode.OpLeI, bytecode.OpGtI, bytecode.OpGeI:
		return true
	}
	return false
}

// int32Const reports whether v is an int constant in int32 range.
func int32Const(v interp.Value) bool {
	return v.Kind == interp.ValInt && v.I >= math.MinInt32 && v.I <= math.MaxInt32
}

// targets lists where a jmp or br can go.
func targets(in bytecode.Instr) []int32 {
	switch in.Op {
	case bytecode.OpJmp:
		return []int32{in.A}
	case bytecode.OpBr:
		return []int32{in.B, in.C}
	}
	return nil
}

// live reports whether a path from the instruction after pc reads
// register r before writing it.
func live(code []bytecode.Instr, r, pc int32) bool {
	if _, w := regUse(code[pc]); w == r {
		return false
	}
	seen := map[int32]bool{}
	work := []int32{pc + 1}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc >= int32(len(code)) || seen[pc] {
			continue
		}
		seen[pc] = true
		in := code[pc]
		reads, w := regUse(in)
		for _, x := range reads {
			if x == r {
				return true
			}
		}
		if w == r {
			continue
		}
		work = append(work, targets(in)...)
		switch in.Op {
		case bytecode.OpJmp, bytecode.OpBr, bytecode.OpRet, bytecode.OpRetZ, bytecode.OpLaunch:
		default:
			work = append(work, pc+1)
		}
	}
	return false
}

// regUse returns the registers an instruction reads, and the one it
// writes (-1 for none).
func regUse(in bytecode.Instr) (reads []int32, write int32) {
	switch in.Op {
	case bytecode.OpNop, bytecode.OpCharge, bytecode.OpJmp, bytecode.OpRetZ, bytecode.OpLaunch:
		return nil, -1
	case bytecode.OpBr, bytecode.OpRet, bytecode.OpArg:
		return []int32{in.A}, -1
	case bytecode.OpConst, bytecode.OpZero, bytecode.OpStr, bytecode.OpStdio,
		bytecode.OpLoadO, bytecode.OpAddrO, bytecode.OpCall:
		return nil, in.A
	case bytecode.OpStoreO:
		return []int32{in.B}, -1
	case bytecode.OpStoreP:
		return []int32{in.A, in.B}, -1
	case bytecode.OpAlloc, bytecode.OpDefine:
		if in.C >= 0 {
			return []int32{in.C}, -1
		}
		return nil, -1
	case bytecode.OpMove, bytecode.OpBool, bytecode.OpNeg, bytecode.OpNot, bytecode.OpBnot,
		bytecode.OpChkP, bytecode.OpAddN, bytecode.OpCvt, bytecode.OpLoadV, bytecode.OpStoreV,
		bytecode.OpLoadP, bytecode.OpLoadAI, bytecode.OpLoadPI,
		bytecode.OpEqIC, bytecode.OpNeIC, bytecode.OpLtIC, bytecode.OpLeIC, bytecode.OpGtIC, bytecode.OpGeIC:
		return []int32{in.B}, in.A
	}
	// idx, bin and the typed arithmetic and comparison family.
	return []int32{in.B, in.C}, in.A
}
