package ir

// Out-of-SSA register assignment for the bytecode backend.
//
// The SSA form this package builds is per-variable: every OpStore /
// OpDeclZero / OpParam / OpPhi definition belongs to exactly one tracked
// Var, every OpLoad reads the reaching definition of one Var, and phi
// operands are always definitions of the phi's own Var. Leaving SSA is
// therefore pure coalescing: all definitions of a Var share one frame
// register, phis become no-ops (the merged value is already in the
// register on every incoming edge), and no parallel-copy sequencing or
// critical-edge splitting is needed.
//
// Every other value-producing instruction gets a temporary register,
// except a forwarded load: an OpLoad whose Var no OpStore or OpDeclZero
// of its block redefines before the load's last use. The variable's own
// register still holds the loaded value at every read, so the load reads
// it in place and needs no copy. Because expression lowering never opens
// a new block (short-circuit operands become conditional instruction
// ranges inside the block), a temporary's live range is contained in its
// block, so a simple linear scan over [definition, last use] positions
// reuses temporaries aggressively and keeps frames small.

// Reachable reports whether b is reachable from the function entry
// (computed by the dominator pass during Build). Code generators skip
// unreachable blocks.
func (b *Block) Reachable() bool { return b.rpo >= 0 }

// RegPlan maps one function's SSA values onto a flat virtual-register
// frame: registers [0, NumVars) hold tracked variables (indexed by
// Var.ID) and the rest hold instruction temporaries.
type RegPlan struct {
	// NumRegs is the frame size in registers.
	NumRegs int
	// NumVars is the tracked-variable register count.
	NumVars int

	reg map[*Instr]int
}

// VarReg returns the frame register holding v.
func (p *RegPlan) VarReg(v *Var) int { return v.ID }

// ValueReg returns the register holding in's result, if any: a temporary,
// or for a forwarded load its variable's register.
func (p *RegPlan) ValueReg(in *Instr) (int, bool) {
	r, ok := p.reg[in]
	return r, ok
}

// producesTemp reports whether an instruction's result occupies a
// temporary register. Definitions of tracked variables write the
// variable's register instead, and phis are coalesced away entirely.
func producesTemp(op Op) bool {
	switch op {
	case OpStore, OpPhi, OpDeclZero, OpParam:
		return false
	}
	return true
}

// AllocateRegisters computes the out-of-SSA register plan for f.
func AllocateRegisters(f *Func) *RegPlan {
	p := &RegPlan{NumVars: len(f.Vars), reg: map[*Instr]int{}}
	rets := map[*Instr]bool{}
	for _, r := range f.Rets {
		rets[r] = true
	}

	next := len(f.Vars)
	var free []int
	const noDef = int(^uint(0) >> 1)
	nextDef := make([]int, len(f.Vars))
	for v := range nextDef {
		nextDef[v] = noDef
	}
	for _, b := range f.Blocks {
		// Last-use position of each temporary within the block: walking
		// backwards, the first use met. Phi and OpLoad arguments are SSA
		// def-use links, not runtime reads. Block terminators and return
		// values are consumed after the last instruction, at end. nextDef
		// holds the index of each variable's next definition in the block,
		// and a load last used before it is forwarded. Index order is
		// conservative across short-circuit and ?: regions, which hold no
		// tracked definitions.
		last := map[*Instr]int{}
		end := len(b.Instrs) + 1
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op == OpStore || in.Op == OpDeclZero {
				nextDef[in.Var.ID] = i
			} else if producesTemp(in.Op) {
				l, used := last[in]
				if in == b.Cond || rets[in] {
					l = end
				} else if !used {
					l = i
				}
				if in.Op == OpLoad && l < nextDef[in.Var.ID] {
					p.reg[in] = in.Var.ID
					delete(last, in)
				} else {
					last[in] = l
				}
			}
			if in.Op == OpPhi || in.Op == OpLoad {
				continue
			}
			for _, a := range in.Args {
				if _, seen := last[a]; !seen && producesTemp(a.Op) {
					last[a] = i
				}
			}
		}

		// Linear scan with deterministic (allocation-ordered) expiry.
		type interval struct {
			reg, last int
		}
		var active []interval
		for i, in := range b.Instrs {
			if in.Op == OpStore || in.Op == OpDeclZero {
				nextDef[in.Var.ID] = noDef
			}
			kept := active[:0]
			for _, a := range active {
				if a.last < i {
					free = append(free, a.reg)
				} else {
					kept = append(kept, a)
				}
			}
			active = kept
			l, ok := last[in]
			if !ok {
				continue
			}
			var r int
			if n := len(free); n > 0 {
				r = free[n-1]
				free = free[:n-1]
			} else {
				r = next
				next++
			}
			p.reg[in] = r
			active = append(active, interval{reg: r, last: l})
		}
		// All temporaries die at the block boundary.
		for _, a := range active {
			free = append(free, a.reg)
		}
	}
	p.NumRegs = next
	return p
}
