package ir

import (
	"fmt"
	"strconv"

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
	Value Const
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
		in := fx.F.ExprInstr[cond]
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
	vn := map[*Instr]string{}
	classes := map[string][]*Instr{}
	var order []string
	for _, in := range fx.F.instrs {
		v := factVN(fx.S, vn, in)
		vn[in] = v
		switch in.Op {
		case OpUnary, OpBinary, OpCast, OpCall:
			if v[0] != 'q' {
				if len(classes[v]) == 0 {
					order = append(order, v)
				}
				classes[v] = append(classes[v], in)
			}
		}
	}
	weight := func(in *Instr) bool {
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
	for _, k := range order {
		class := classes[k]
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
			if (sameBlock || dominates(lead.Block, in.Block) && lead.Block != in.Block) && weight(lead) {
				fx.Redundant = append(fx.Redundant, RedundantPair{First: lead.Expr, Second: in.Expr})
			}
		}
	}
}

// factVN mirrors csePass's value numbering.
func factVN(s *SCCP, vn map[*Instr]string, in *Instr) string {
	key := func(op string) string {
		k := op
		for _, a := range in.Args {
			if a == nil {
				return uniqueVN(in)
			}
			k += "," + vn[a]
		}
		return k
	}
	switch in.Op {
	case OpConst:
		if in.Val.Kind == ConstFloat {
			return fmt.Sprintf("k:f%x", in.Val.F)
		}
		return "k:i" + strconv.FormatInt(in.Val.I, 10)
	case OpLoad:
		if len(in.Args) > 0 && in.Args[0] != nil {
			return "d:" + strconv.Itoa(in.Args[0].ID)
		}
	case OpUnary:
		return key("u:" + in.OpStr)
	case OpBinary:
		if in.OpStr == "/" || in.OpStr == "%" {
			if c, ok := s.ConstOf(in.Args[1]); !ok || !c.Truthy() {
				break
			}
		}
		return key("b:" + in.OpStr)
	case OpCast:
		if in.To != nil && scalarKind(in.To.Kind) {
			return key("c:" + strconv.Itoa(int(in.To.Kind)))
		}
	case OpCall:
		if in.Pure {
			return key("f:" + in.OpStr)
		}
	}
	return uniqueVN(in)
}

func uniqueVN(in *Instr) string { return "q:" + strconv.Itoa(in.ID) }

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
		in := fx.F.ExprInstr[ix.Idx]
		if in == nil || in.Block == nil || !fx.S.Reachable(in.Block) {
			return true
		}
		c, ok := fx.S.ConstOf(in)
		if !ok || c.Kind != ConstInt {
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
					x.Sym.Type != nil && scalarKind(x.Sym.Type.Kind) &&
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
