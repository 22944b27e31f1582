package ir

import "repro/internal/interp"

// Sparse conditional constant propagation (Wegman & Zadeck) over the SSA
// form: a three-level lattice (unknown / constant / varying) per
// instruction, propagated only along CFG edges proven executable. Branch
// conditions that settle to constants keep their untaken edges dead, so
// facts from provably-unreachable code never pollute the result — this is
// what upgrades the HD4xx static out-of-bounds heuristic to the
// dataflow-precise HD605, and what powers constant-condition (HD601) and
// unreachable-code (HD602) reporting.

type latTag int

const (
	latTop latTag = iota // unknown (no evidence yet)
	latConst
	latBottom // varying
)

// lattice holds a constant as an interpreter value of kind ValInt or
// ValFloat. Values compare with ==, which is bitwise for floats (their
// bits live in I), so 0.0 and -0.0 never merge into one constant.
type lattice struct {
	tag latTag
	val interp.Value
}

var bottom = lattice{tag: latBottom}

func constLat(c interp.Value) lattice { return lattice{tag: latConst, val: c} }

// folded is the lattice value of an interpreter operation on constants.
// An error means the operation traps at run time, so it is left unfolded.
func folded(v interp.Value, err error) lattice {
	if err != nil {
		return bottom
	}
	return constLat(v)
}

// meetLat combines two lattice values.
func meetLat(a, b lattice) lattice {
	switch {
	case a.tag == latTop:
		return b
	case b.tag == latTop:
		return a
	case a.tag == latConst && b.tag == latConst && a.val == b.val:
		return a
	}
	return bottom
}

// SCCP holds the analysis result for one function.
type SCCP struct {
	f *Func
	// blockExec marks blocks proven reachable.
	blockExec []bool
	// edgeExec marks executable CFG edges keyed by (pred.ID, succ.ID).
	edgeExec map[[2]int]bool
	users    map[*Instr][]*Instr
}

// ConstOf reports the constant value of in, if proven.
func (s *SCCP) ConstOf(in *Instr) (interp.Value, bool) {
	if in != nil && in.lat.tag == latConst {
		return in.lat.val, true
	}
	return interp.Value{}, false
}

// Reachable reports whether b was proven executable.
func (s *SCCP) Reachable(b *Block) bool { return s.blockExec[b.ID] }

// Run performs the analysis.
func Run(f *Func) *SCCP {
	s := &SCCP{
		f:         f,
		blockExec: make([]bool, len(f.Blocks)),
		edgeExec:  map[[2]int]bool{},
		users:     map[*Instr][]*Instr{},
	}
	for _, in := range f.instrs {
		in.lat = lattice{}
		for _, a := range in.Args {
			if a != nil {
				s.users[a] = append(s.users[a], in)
			}
		}
	}

	var instrWL []*Instr
	type flowEdge struct{ from, to *Block }
	var flowWL []flowEdge

	lower := func(in *Instr, nv lattice) {
		// Monotone update: only move down the lattice.
		if nv.tag == latTop || in.lat.tag == latBottom {
			return
		}
		if in.lat.tag == nv.tag && (nv.tag != latConst || in.lat.val == nv.val) {
			return
		}
		if in.lat.tag == latConst && nv.tag == latConst {
			nv = bottom
		}
		in.lat = nv
		instrWL = append(instrWL, s.users[in]...)
		// A changed branch condition re-derives its block's out-edges.
		if b := in.Block; b != nil && b.Cond == in {
			for _, e := range s.condEdges(b) {
				flowWL = append(flowWL, flowEdge{b, e})
			}
		}
	}

	markEdge := func(from, to *Block) {
		key := [2]int{from.ID, to.ID}
		if s.edgeExec[key] {
			return
		}
		s.edgeExec[key] = true
		first := !s.blockExec[to.ID]
		s.blockExec[to.ID] = true
		// (Re-)evaluate phis: a newly-executable in-edge can change them.
		for _, phi := range to.Phis {
			lower(phi, s.evalPhi(phi))
		}
		if first {
			for _, in := range to.Instrs {
				lower(in, s.eval(in))
			}
			for _, e := range s.succEdges(to) {
				flowWL = append(flowWL, flowEdge{to, e})
			}
		}
	}

	s.blockExec[f.Entry.ID] = true
	for _, in := range f.Entry.Instrs {
		lower(in, s.eval(in))
	}
	for _, e := range s.succEdges(f.Entry) {
		flowWL = append(flowWL, flowEdge{f.Entry, e})
	}

	for len(flowWL) > 0 || len(instrWL) > 0 {
		for len(flowWL) > 0 {
			e := flowWL[len(flowWL)-1]
			flowWL = flowWL[:len(flowWL)-1]
			markEdge(e.from, e.to)
		}
		for len(instrWL) > 0 {
			in := instrWL[len(instrWL)-1]
			instrWL = instrWL[:len(instrWL)-1]
			if !s.blockExec[in.Block.ID] {
				continue
			}
			if in.Op == OpPhi {
				lower(in, s.evalPhi(in))
			} else {
				lower(in, s.eval(in))
			}
		}
	}
	return s
}

// succEdges returns the currently-known executable successors of b given
// its condition's lattice value.
func (s *SCCP) succEdges(b *Block) []*Block {
	if b.Cond == nil {
		return b.Succs
	}
	return s.condEdges(b)
}

func (s *SCCP) condEdges(b *Block) []*Block {
	if len(b.Succs) < 2 {
		return b.Succs
	}
	switch b.Cond.lat.tag {
	case latTop:
		return nil // not yet known; wait
	case latConst:
		if b.Cond.lat.val.Truthy() {
			return b.Succs[:1]
		}
		return b.Succs[1:2]
	}
	return b.Succs
}

func (s *SCCP) evalPhi(phi *Instr) lattice {
	res := lattice{}
	for i, p := range phi.Block.Preds {
		if !s.edgeExec[[2]int{p.ID, phi.Block.ID}] {
			continue
		}
		if phi.Args[i] == nil {
			return bottom
		}
		res = meetLat(res, phi.Args[i].lat)
		if res.tag == latBottom {
			return res
		}
	}
	return res
}

// eval computes the lattice value of a non-phi instruction from its
// arguments' current values.
func (s *SCCP) eval(in *Instr) lattice {
	argLat := func(i int) lattice {
		if i >= len(in.Args) || in.Args[i] == nil {
			return bottom
		}
		return in.Args[i].lat
	}
	switch in.Op {
	case OpConst:
		return constLat(in.Val)
	case OpDeclZero:
		// Uninitialized cells read as the zero Value, i.e. int 0.
		return constLat(interp.IntVal(0))
	case OpParam, OpLoadMem, OpEffect:
		return bottom
	case OpLoad:
		return argLat(0)
	case OpStore, OpCast:
		// Both yield the operand converted to the target type (a store's
		// observable value is the cell it wrote). Only numeric targets
		// fold: a constant is never a pointer.
		a, to := argLat(0), in.To
		if in.Op == OpStore {
			to = in.Var.Type
		}
		if a.tag != latConst {
			return a
		}
		if to != nil && !to.IsNumeric() {
			return bottom
		}
		return constLat(interp.ConvertFor(to, a.val))
	case OpUnary:
		a := argLat(0)
		if a.tag == latConst {
			return folded(interp.ApplyUnary(in.OpStr, a.val))
		}
		return a
	case OpBinary:
		l, r := argLat(0), argLat(1)
		if l.tag == latConst && r.tag == latConst {
			return folded(interp.ApplyBinary(in.OpStr, l.val, r.val))
		}
		if l.tag == latTop || r.tag == latTop {
			return lattice{}
		}
		return bottom
	case OpLogic:
		l, r := argLat(0), argLat(1)
		// The left side alone can decide, exactly as the interpreter
		// short-circuits; the right side's value is then irrelevant.
		if l.tag == latConst {
			if in.OpStr == "&&" && !l.val.Truthy() {
				return constLat(interp.IntVal(0))
			}
			if in.OpStr == "||" && l.val.Truthy() {
				return constLat(interp.IntVal(1))
			}
			if r.tag == latConst {
				// Otherwise the result is the right side's truth, r != 0.
				return folded(interp.ApplyBinary("!=", r.val, interp.IntVal(0)))
			}
			if r.tag == latTop {
				return lattice{}
			}
			return bottom
		}
		if l.tag == latTop {
			return lattice{}
		}
		return bottom
	case OpSelect:
		c, t, f := argLat(0), argLat(1), argLat(2)
		if c.tag == latConst {
			if c.val.Truthy() {
				return t
			}
			return f
		}
		if c.tag == latTop {
			return lattice{}
		}
		return meetLat(t, f)
	case OpCall:
		if !in.Pure {
			return bottom
		}
		args := make([]interp.Value, len(in.Args))
		for i := range in.Args {
			a := argLat(i)
			if a.tag == latTop {
				return lattice{}
			}
			if a.tag != latConst {
				return bottom
			}
			args[i] = a.val
		}
		if c, ok := interp.CallPure(in.OpStr, args); ok {
			return constLat(c)
		}
		return bottom
	}
	return bottom
}
