package ir

import (
	"repro/internal/interp"
	"repro/internal/minic"
)

// Facts is the shared analysis result the HD6xx lints read. It exposes the
// same SCCP lattice and value-numbering classes the optimizer acts on, so
// the linter and the optimizer can never disagree about what is constant,
// unreachable, or redundant.
type Facts struct {
	Fn *minic.FuncDecl
	F  *Func
	S  *SCCP

	// ConstConds lists non-literal branch conditions that are provably
	// constant (HD601).
	ConstConds []ConstCond
	// Unreachable lists statements proven never to execute (HD602), one
	// representative per unreachable region.
	Unreachable []minic.Stmt
	// Redundant lists repeated computations of the same value (HD603).
	Redundant []RedundantPair
	// OOB lists subscripts with a proven out-of-range constant index on a
	// fixed-length array (HD605).
	OOB []OOBAccess
}

// ConstCond is a branch condition with a proven constant value.
type ConstCond struct {
	Stmt  minic.Stmt // the If/While/For statement
	Cond  minic.Expr
	Value interp.Value
}

// RedundantPair is a repeated computation: Second recomputes First's value.
type RedundantPair struct {
	First, Second minic.Expr
}

// OOBAccess is a proven out-of-bounds constant subscript.
type OOBAccess struct {
	Expr  *minic.Index
	Name  string
	Index int64
	Len   int
}

// AnalyzeFunc lowers fn and derives the optimization facts for linting.
// The AST is not modified.
func AnalyzeFunc(fn *minic.FuncDecl) *Facts {
	f := Build(fn)
	s := Run(f)
	fx := &Facts{Fn: fn, F: f, S: s}
	fx.constConds()
	fx.unreachable()
	fx.redundant()
	fx.oob()
	return fx
}

func (fx *Facts) constConds() {
	minic.WalkStmts(fx.Fn.Body, func(s minic.Stmt) {
		var cond minic.Expr
		switch st := s.(type) {
		case *minic.If:
			cond = st.Cond
		case *minic.While:
			cond = st.Cond
		case *minic.For:
			cond = st.Cond
		default:
			return
		}
		if cond == nil {
			return
		}
		if _, lit := litConst(cond); lit {
			return // `while (1)` idioms are intentional
		}
		in := fx.F.Exprs[cond].Instr
		if in == nil || in.Block == nil || !fx.S.Reachable(in.Block) {
			return
		}
		if c, ok := fx.S.ConstOf(in); ok {
			fx.ConstConds = append(fx.ConstConds, ConstCond{Stmt: s, Cond: cond, Value: c})
		}
	})
}

// unreachable reports the first statement of each maximal unreachable
// region: a statement all of whose lowered blocks are unreachable, whose
// AST predecessors do not already cover it.
func (fx *Facts) unreachable() {
	// A statement is reported when every block listing it is unreachable
	// (statements can span blocks, e.g. loops).
	blocksOf := map[minic.Stmt][]*Block{}
	for _, b := range fx.F.Blocks {
		for _, s := range b.Stmts {
			blocksOf[s] = append(blocksOf[s], b)
		}
	}
	dead := func(s minic.Stmt) bool {
		bs := blocksOf[s]
		if len(bs) == 0 {
			return false
		}
		for _, b := range bs {
			if fx.S.Reachable(b) {
				return false
			}
		}
		return true
	}
	// Report only region heads: walk statement lists and emit the first
	// dead statement after a live one (or a dead branch arm), then skip
	// the rest of that region.
	var scan func(s minic.Stmt)
	report := func(s minic.Stmt) {
		if s == nil {
			return
		}
		if _, ok := s.(*minic.EmptyStmt); ok {
			return
		}
		fx.Unreachable = append(fx.Unreachable, s)
	}
	scan = func(s minic.Stmt) {
		switch st := s.(type) {
		case nil:
		case *minic.Block:
			for _, inner := range st.Stmts {
				if dead(inner) {
					report(inner)
					return // rest of the list is the same region
				}
				scan(inner)
			}
		case *minic.If:
			if dead(st.Then) {
				report(st.Then)
			} else {
				scan(st.Then)
			}
			if st.Else != nil {
				if dead(st.Else) {
					report(st.Else)
				} else {
					scan(st.Else)
				}
			}
		case *minic.While:
			if dead(st.Body) {
				report(st.Body)
			} else {
				scan(st.Body)
			}
		case *minic.For:
			if dead(st.Body) {
				report(st.Body)
			} else {
				scan(st.Body)
			}
		case *minic.PragmaStmt:
			scan(st.Body)
		}
	}
	scan(fx.Fn.Body)
}

// redundant surfaces the same dominance-scoped value-number classes the
// CSE pass rewrites, as diagnostics.
func (fx *Facts) redundant() {
	for _, class := range vnClasses(fx.S, fx.F) {
		if len(class) < 2 {
			continue
		}
		var lead *Instr
		for _, in := range class {
			if in.Expr == nil || !fx.S.Reachable(in.Block) {
				continue
			}
			if lead == nil {
				lead = in
				continue
			}
			sameBlock := lead.Block == in.Block && lead.ID < in.ID
			if (sameBlock || dominates(lead.Block, in.Block) && lead.Block != in.Block) && worthSharing(lead) {
				fx.Redundant = append(fx.Redundant, RedundantPair{First: lead.Expr, Second: in.Expr})
			}
		}
	}
}

// vnClasses value-numbers f's instructions and groups the operators,
// casts and calls that share a number, in order of first appearance. A
// class of two or more is a repeated computation of one value.
func vnClasses(s *SCCP, f *Func) [][]*Instr {
	vn := make([]int, f.nextID) // value number per Instr.ID
	numbers := map[vnKey]int{}
	var classOf []int // class index per value number, -1 for none
	var classes [][]*Instr
	for _, in := range f.instrs {
		k, shared := valueKey(s, vn, in)
		v, ok := numbers[k]
		if !ok || !shared { // a new key, or an instruction never shared
			v = len(classOf)
			classOf = append(classOf, -1)
			if shared {
				numbers[k] = v
			}
		}
		vn[in.ID] = v
		switch in.Op {
		case OpUnary, OpBinary, OpCast, OpCall:
			if !shared {
				continue
			}
			if classOf[v] < 0 {
				classOf[v] = len(classes)
				classes = append(classes, nil)
			}
			classes[classOf[v]] = append(classes[classOf[v]], in)
		}
	}
	return classes
}

// worthSharing reports whether recomputing in costs enough to share its
// value through a temp: it applies two or more operators, or calls.
func worthSharing(in *Instr) bool {
	ops, call := 0, false
	var walk func(x *Instr)
	walk = func(x *Instr) {
		if x == nil {
			return
		}
		switch x.Op {
		case OpUnary, OpBinary, OpCast:
			ops++
		case OpCall:
			call = true
		case OpLoad, OpConst:
			return
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(in)
	return ops >= 2 || call
}

// vnKey identifies a value number: equal keys mean equal runtime values
// wherever both instructions evaluate with the same reaching definitions.
type vnKey struct {
	op   Op
	name string // operator or builtin name
	kind int    // constant kind or cast target kind
	bits int64  // constant bits, or a load's reaching definition ID
	args [2]int // operand value numbers, -1 when absent
}

// valueKey keys in over SSA for csePass and the HD603 facts, given the
// value numbers vn of its operands. shared is false when in must get a
// number of its own, so it is never shared: vnKey does not model it, or it
// is a binary that may trap.
func valueKey(s *SCCP, vn []int, in *Instr) (k vnKey, shared bool) {
	k = vnKey{op: in.Op, name: in.OpStr, args: [2]int{-1, -1}}
	switch in.Op {
	case OpConst:
		k.kind, k.bits = int(in.Val.Kind), in.Val.I
		return k, true
	case OpLoad:
		if len(in.Args) > 0 && in.Args[0] != nil {
			k.bits = int64(in.Args[0].ID)
			return k, true
		}
		return k, false
	case OpUnary:
	case OpBinary:
		if in.OpStr == "/" || in.OpStr == "%" {
			if c, ok := s.ConstOf(in.Args[1]); !ok || !c.Truthy() {
				return k, false
			}
		}
		if b, ok := in.Expr.(*minic.Binary); ok && operandsMayTrap(b) {
			return k, false
		}
	case OpCast:
		if in.To == nil || !in.To.IsNumeric() {
			return k, false
		}
		k.kind = int(in.To.Kind)
	case OpCall:
		if !in.Pure {
			return k, false
		}
	default:
		return k, false
	}
	if len(in.Args) > len(k.args) {
		return k, false
	}
	for i, a := range in.Args {
		if a == nil {
			return k, false
		}
		k.args[i] = vn[a.ID]
	}
	return k, true
}

// oob finds constant subscripts provably outside a fixed-length array.
func (fx *Facts) oob() {
	minic.WalkExprs(fx.Fn.Body, func(e minic.Expr) bool {
		ix, ok := e.(*minic.Index)
		if !ok {
			return true
		}
		base, ok := ix.X.(*minic.Ident)
		if !ok || base.Sym == nil || base.Sym.Type == nil {
			return true
		}
		t := base.Sym.Type
		if t.Kind != minic.TypeArray || t.Len <= 0 || t.Elem == nil || t.Elem.Kind == minic.TypeArray {
			return true // only single-dimension fixed arrays
		}
		in := fx.F.Exprs[ix.Idx].Instr
		if in == nil || in.Block == nil || !fx.S.Reachable(in.Block) {
			return true
		}
		c, ok := fx.S.ConstOf(in)
		if !ok || c.Kind != interp.ValInt {
			return true
		}
		if c.I < 0 || c.I >= int64(t.Len) {
			fx.OOB = append(fx.OOB, OOBAccess{Expr: ix, Name: base.Sym.Name, Index: c.I, Len: t.Len})
		}
		return true
	})
}

// LoopInvariantEmits finds emitKV/printf-style calls inside loops whose
// value arguments are all loop-invariant (HD604): the loop emits the same
// pair every iteration, which is almost always a hoisting mistake.
func LoopInvariantEmits(fn *minic.FuncDecl) []*minic.Call {
	demoted := demotedSyms(fn)
	var out []*minic.Call
	seen := map[*minic.Call]bool{}
	var scanLoop func(loop minic.Stmt)
	scanLoop = func(loop minic.Stmt) {
		assigned := assignedSyms(loop)
		var invariant func(e minic.Expr) bool
		invariant = func(e minic.Expr) bool {
			switch x := e.(type) {
			case *minic.IntLit, *minic.FloatLit, *minic.CharLit:
				return true
			case *minic.Ident:
				return x.Sym != nil && !x.Sym.Global &&
					(x.Sym.Kind == minic.SymVar || x.Sym.Kind == minic.SymParam) &&
					x.Sym.Type != nil && x.Sym.Type.IsNumeric() &&
					!demoted[x.Sym] && !assigned[x.Sym]
			case *minic.Unary:
				switch x.Op {
				case "-", "!", "~":
					return invariant(x.X)
				}
				return false
			case *minic.Binary:
				if x.Op == "&&" || x.Op == "||" {
					return false
				}
				return invariant(x.L) && invariant(x.R)
			case *minic.Cast:
				return invariant(x.X)
			}
			return false
		}
		var body minic.Stmt
		switch l := loop.(type) {
		case *minic.While:
			body = l.Body
		case *minic.For:
			body = l.Body
		}
		minic.WalkStmts(body, func(s minic.Stmt) {
			es, ok := s.(*minic.ExprStmt)
			if !ok {
				return
			}
			call, ok := es.X.(*minic.Call)
			if !ok || seen[call] {
				return
			}
			var args []minic.Expr
			switch call.Name {
			case "emitKV", "storeKV":
				args = call.Args
			case "printf", "fprintf":
				// Skip the format string (and stream); judge value args.
				skip := 1
				if call.Name == "fprintf" {
					skip = 2
				}
				if len(call.Args) <= skip {
					return // no value arguments: constant output is idiomatic
				}
				args = call.Args[skip:]
			default:
				return
			}
			if len(args) == 0 {
				return
			}
			for _, a := range args {
				if !invariant(a) {
					return
				}
			}
			seen[call] = true
			out = append(out, call)
		})
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		switch s.(type) {
		case *minic.While, *minic.For:
			scanLoop(s)
		}
	})
	return out
}
