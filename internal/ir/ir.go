// Package ir lowers MiniC functions into a CFG+SSA intermediate form with
// a reusable dataflow framework, and implements the analysis-driven
// optimizations the compiler applies before handing ASTs to the backends:
// sparse conditional constant propagation and folding, dead-code and
// dead-store elimination, copy propagation, common-subexpression
// elimination, and loop-invariant hoisting. The same fact base feeds the
// HD6xx optimization lints in internal/analysis, so the linter and the
// optimizer can never disagree about what is constant, dead, or invariant.
//
// The IR is deliberately AST-anchored: every instruction remembers the
// expression and statement it was lowered from, because the three backends
// (interpreter, streaming, GPU) all execute MiniC ASTs — optimization here
// means provably-equivalent smaller ASTs, not generated code. Semantic
// equivalence is defined by internal/interp: folding replicates its exact
// arithmetic (int64 wraparound, &63 shift masking, float promotion,
// convertFor storage truncation) and never folds or deletes anything that
// could trap (division by zero, out-of-bounds access).
package ir

import (
	"repro/internal/minic"
)

// Op enumerates IR instruction kinds.
type Op int

// Instruction kinds.
const (
	// OpConst is a literal integer or float value.
	OpConst Op = iota
	// OpParam defines a function parameter's incoming value.
	OpParam
	// OpDeclZero defines a tracked variable at an initializer-less
	// declaration. Uninitialized cells read as int 0 in the interpreter,
	// so this is a definition of constant zero.
	OpDeclZero
	// OpLoad reads a tracked variable; after SSA renaming Args[0] is the
	// reaching definition (OpStore, OpDeclZero, OpParam, or OpPhi).
	OpLoad
	// OpLoadMem is an opaque value load: globals, array elements, pointer
	// dereferences, string literals, address-of results. Never folded.
	OpLoadMem
	// OpStore writes a tracked variable. Args[0] is the assigned value.
	// As a definition its observable value is convertFor(Var.Type, rhs) —
	// the storage-truncated cell — while the enclosing assignment
	// *expression* yields the unconverted rhs, exactly like the
	// interpreter.
	OpStore
	// OpPhi merges definitions at a CFG join; Args align with Block.Preds.
	OpPhi
	// OpUnary applies -, !, or ~.
	OpUnary
	// OpBinary applies a non-short-circuit binary operator.
	OpBinary
	// OpLogic is && or || with the interpreter's lazy semantics: the
	// right operand's instructions are lowered into the same block but
	// may not execute at runtime, so no tracked definitions are allowed
	// inside it (the lowerer demotes any such variable).
	OpLogic
	// OpSelect is the ?: operator; Args are [cond, then, else].
	OpSelect
	// OpCast converts to CastTo with convertFor semantics.
	OpCast
	// OpCall invokes a function or builtin; Pure marks math builtins that
	// are side-effect- and trap-free.
	OpCall
	// OpEffect is an opaque side effect: a store through memory, an
	// increment of an untracked lvalue, or any write the IR does not
	// model. Always a liveness root.
	OpEffect
)

// StoreKind classifies how an OpStore appears in the AST, which decides
// whether dead-store elimination can delete its statement.
type StoreKind int

// Store kinds.
const (
	// StoreAssign is a plain `v = rhs` assignment expression.
	StoreAssign StoreKind = iota
	// StoreCompound is `v op= rhs`, `v++`, `--v`, etc.
	StoreCompound
	// StoreDeclInit is a declaration initializer `int v = rhs;`.
	StoreDeclInit
)

// Instr is one IR instruction.
type Instr struct {
	ID    int
	Op    Op
	OpStr string // operator for OpUnary/OpBinary/OpLogic, name for OpCall
	Var   *Var   // for OpParam/OpDeclZero/OpLoad/OpStore/OpPhi
	Val   Const  // for OpConst
	To    *minic.Type
	Args  []*Instr
	Block *Block
	// Ends delimits the conditional parts of OpLogic (Ends[0]: the last
	// instruction of the left operand) and OpSelect (the last of the
	// condition, then the last of the then arm). An operand's value need
	// not be its last instruction: an assignment yields its right-hand
	// side, then stores.
	Ends [2]*Instr

	// Expr / Stmt anchor the instruction to its AST origin. Expr is nil
	// for synthetic instructions (e.g. the implicit `for(;;)` condition).
	Expr minic.Expr
	Stmt minic.Stmt

	// Pure marks OpCall instructions whose builtin is side-effect- and
	// trap-free (the math functions).
	Pure bool
	// Trap marks instructions that can abort execution: potentially
	// out-of-bounds loads/derefs; division/modulo traps are derived from
	// the divisor's lattice value instead (see canTrap).
	Trap bool

	// StoreKind/Decl describe OpStore AST shape for DSE rewriting.
	StoreKind StoreKind
	Decl      *minic.Declarator // for StoreDeclInit
	Assign    *minic.Assign     // for StoreAssign

	lat lattice // SCCP result
}

// Var is a tracked scalar local: a non-global, non-array, non-pointer
// variable whose address is never taken and which is never defined inside
// a conditionally-evaluated subexpression.
type Var struct {
	ID   int
	Sym  *minic.Symbol
	Type *minic.Type
}

// Block is a basic block. Terminators are implicit: Cond == nil means an
// unconditional transfer to Succs[0] (or function exit when Succs is
// empty); otherwise Succs[0] is the true edge and Succs[1] the false edge.
type Block struct {
	ID     int
	Phis   []*Instr
	Instrs []*Instr
	Cond   *Instr
	Succs  []*Block
	Preds  []*Block

	// Stmts lists the statements lowered (at least partly) into this
	// block, for unreachable-code reporting.
	Stmts []minic.Stmt

	// Backstep marks a block whose unconditional successor edge is a loop
	// back-edge that the interpreter charges one extra step for (the
	// per-iteration steps++ at the bottom of While/For bodies). The
	// bytecode backend replicates the step-budget accounting from it.
	Backstep bool

	// Dominator-tree fields, filled by computeDominators.
	idom     *Block
	children []*Block
	frontier []*Block
	rpo      int // reverse-postorder index; -1 = unreachable
}

// Func is one lowered function.
type Func struct {
	Decl   *minic.FuncDecl
	Blocks []*Block
	Entry  *Block
	Vars   []*Var
	// Rets lists return-value instructions (liveness roots).
	Rets []*Instr

	varOf map[*minic.Symbol]*Var
	// ExprInstr maps each lowered AST expression to the instruction
	// producing its value.
	ExprInstr map[minic.Expr]*Instr

	instrs []*Instr // all instructions, for iteration
	nextID int
}

// VarFor returns the tracked Var for a symbol, or nil if the symbol is
// untracked (global, array, pointer, address-taken, or demoted).
func (f *Func) VarFor(sym *minic.Symbol) *Var { return f.varOf[sym] }

// lowerer carries the state of one function lowering.
type lowerer struct {
	f    *Func
	cur  *Block
	stmt minic.Stmt // statement currently being lowered
	brk  []*Block
	cont []*Block
	// contStep parallels cont: true when a continue edge to the target is
	// a While back-edge (which the interpreter charges a step for).
	contStep []bool
	demoted  map[*minic.Symbol]bool
	// demoteFn, when non-nil, additionally demotes symbols (fragment
	// builds demote everything declared outside the fragment).
	demoteFn func(*minic.Symbol) bool
}

// Build lowers fn into CFG+SSA form: basic blocks of instructions over
// tracked scalar variables, minimal phi placement at iterated dominance
// frontiers, and def-use chains via OpLoad/OpPhi arguments.
func Build(fn *minic.FuncDecl) *Func { return BuildFragment(fn, nil) }

// BuildFragment is Build with an extra demotion predicate: any symbol for
// which demote returns true is kept untracked (object-backed). The
// bytecode backend uses it to lower GPU kernel fragments whose free
// variables live in a host-populated frame rather than SSA registers.
func BuildFragment(fn *minic.FuncDecl, demote func(*minic.Symbol) bool) *Func {
	f := &Func{
		Decl:      fn,
		varOf:     map[*minic.Symbol]*Var{},
		ExprInstr: map[minic.Expr]*Instr{},
	}
	lw := &lowerer{f: f, demoted: demotedSyms(fn), demoteFn: demote}
	lw.cur = lw.newBlock()
	f.Entry = lw.cur

	// Parameters are tracked when scalar; their incoming values are
	// opaque definitions in the entry block.
	for _, p := range fn.Params {
		if v := lw.trackedVar(p.Sym); v != nil {
			lw.emit(&Instr{Op: OpParam, Var: v})
		}
	}
	lw.lowerStmt(fn.Body)

	computeDominators(f)
	placePhis(f)
	rename(f)
	return f
}

// demotedSyms scans fn for symbols that cannot be tracked: address-taken
// variables and variables defined inside conditionally-evaluated
// subexpressions (&&/|| right operands, ?: arms), where a definition may
// or may not execute.
func demotedSyms(fn *minic.FuncDecl) map[*minic.Symbol]bool {
	out := map[*minic.Symbol]bool{}
	var expr func(e minic.Expr, conditional bool)
	demoteTarget := func(e minic.Expr) {
		if id, ok := e.(*minic.Ident); ok && id.Sym != nil {
			out[id.Sym] = true
		}
	}
	expr = func(e minic.Expr, conditional bool) {
		switch x := e.(type) {
		case nil:
		case *minic.Unary:
			if x.Op == "&" {
				demoteTarget(x.X)
			}
			if conditional && (x.Op == "++" || x.Op == "--") {
				demoteTarget(x.X)
			}
			expr(x.X, conditional)
		case *minic.Postfix:
			if conditional {
				demoteTarget(x.X)
			}
			expr(x.X, conditional)
		case *minic.Binary:
			if x.Op == "&&" || x.Op == "||" {
				expr(x.L, conditional)
				expr(x.R, true)
			} else {
				expr(x.L, conditional)
				expr(x.R, conditional)
			}
		case *minic.Assign:
			if conditional {
				demoteTarget(x.L)
			}
			expr(x.L, conditional)
			expr(x.R, conditional)
		case *minic.Cond:
			expr(x.C, conditional)
			expr(x.T, true)
			expr(x.F, true)
		case *minic.Call:
			for _, a := range x.Args {
				expr(a, conditional)
			}
		case *minic.Index:
			expr(x.X, conditional)
			expr(x.Idx, conditional)
		case *minic.Cast:
			expr(x.X, conditional)
		}
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		minic.StmtExprs(s, func(e minic.Expr) { expr(e, false) })
	})
	return out
}

// trackedVar returns (creating on first use) the Var for sym, or nil when
// sym is untracked.
func (lw *lowerer) trackedVar(sym *minic.Symbol) *Var {
	if sym == nil || sym.Global || lw.demoted[sym] {
		return nil
	}
	if lw.demoteFn != nil && lw.demoteFn(sym) {
		return nil
	}
	if sym.Kind != minic.SymVar && sym.Kind != minic.SymParam {
		return nil
	}
	t := sym.Type
	if t == nil || !scalarKind(t.Kind) {
		return nil
	}
	if v, ok := lw.f.varOf[sym]; ok {
		return v
	}
	v := &Var{ID: len(lw.f.Vars), Sym: sym, Type: t}
	lw.f.Vars = append(lw.f.Vars, v)
	lw.f.varOf[sym] = v
	return v
}

func scalarKind(k minic.TypeKind) bool {
	switch k {
	case minic.TypeChar, minic.TypeInt, minic.TypeLong, minic.TypeFloat, minic.TypeDouble:
		return true
	}
	return false
}

func (lw *lowerer) newBlock() *Block {
	b := &Block{ID: len(lw.f.Blocks), rpo: -1}
	lw.f.Blocks = append(lw.f.Blocks, b)
	return b
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (lw *lowerer) emit(in *Instr) *Instr {
	in.ID = lw.f.nextID
	lw.f.nextID++
	in.Block = lw.cur
	in.Stmt = lw.stmt
	lw.cur.Instrs = append(lw.cur.Instrs, in)
	lw.f.instrs = append(lw.f.instrs, in)
	return in
}

// last returns the most recently emitted instruction. Expression lowering
// never opens a block and always emits, so after lowering an operand it
// is that operand's last instruction.
func (lw *lowerer) last() *Instr { return lw.cur.Instrs[len(lw.cur.Instrs)-1] }

func (lw *lowerer) konst(c Const, e minic.Expr) *Instr {
	in := lw.emit(&Instr{Op: OpConst, Val: c, Expr: e})
	if e != nil {
		lw.f.ExprInstr[e] = in
	}
	return in
}

// lowerStmt lowers one statement into the current block, creating blocks
// as control flow requires.
func (lw *lowerer) lowerStmt(s minic.Stmt) {
	if s == nil {
		return
	}
	prev := lw.stmt
	lw.stmt = s
	defer func() { lw.stmt = prev }()
	lw.cur.Stmts = append(lw.cur.Stmts, s)

	switch st := s.(type) {
	case *minic.Block:
		for _, inner := range st.Stmts {
			lw.lowerStmt(inner)
		}
	case *minic.EmptyStmt:
	case *minic.PragmaStmt:
		lw.lowerStmt(st.Body)
	case *minic.DeclStmt:
		for _, d := range st.Decls {
			v := lw.trackedVar(d.Sym)
			switch {
			case v != nil && d.Init != nil:
				r := lw.lowerExpr(d.Init)
				lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{r}, StoreKind: StoreDeclInit, Decl: d})
			case v != nil:
				lw.emit(&Instr{Op: OpDeclZero, Var: v})
			case d.Init != nil:
				r := lw.lowerExpr(d.Init)
				lw.emit(&Instr{Op: OpEffect, Args: []*Instr{r}, Decl: d})
			}
		}
	case *minic.ExprStmt:
		lw.lowerExpr(st.X)
	case *minic.If:
		c := lw.lowerExpr(st.Cond)
		condBlock := lw.cur
		condBlock.Cond = c
		thenB := lw.newBlock()
		join := lw.newBlock()
		edge(condBlock, thenB)
		if st.Else != nil {
			elseB := lw.newBlock()
			edge(condBlock, elseB)
			lw.cur = elseB
			lw.lowerStmt(st.Else)
			edge(lw.cur, join)
		} else {
			edge(condBlock, join)
		}
		lw.cur = thenB
		lw.lowerStmt(st.Then)
		edge(lw.cur, join)
		lw.cur = join
	case *minic.While:
		header := lw.newBlock()
		edge(lw.cur, header)
		lw.cur = header
		c := lw.lowerExpr(st.Cond)
		head := lw.cur // short-circuit lowering stays in one block
		head.Cond = c
		body := lw.newBlock()
		exit := lw.newBlock()
		edge(head, body)
		edge(head, exit)
		lw.brk = append(lw.brk, exit)
		lw.cont = append(lw.cont, header)
		lw.contStep = append(lw.contStep, true)
		lw.cur = body
		lw.lowerStmt(st.Body)
		lw.cur.Backstep = true
		edge(lw.cur, header)
		lw.brk = lw.brk[:len(lw.brk)-1]
		lw.cont = lw.cont[:len(lw.cont)-1]
		lw.contStep = lw.contStep[:len(lw.contStep)-1]
		lw.cur = exit
	case *minic.For:
		lw.lowerStmt(st.Init)
		header := lw.newBlock()
		edge(lw.cur, header)
		lw.cur = header
		var c *Instr
		if st.Cond != nil {
			c = lw.lowerExpr(st.Cond)
		} else {
			c = lw.konst(IntConst(1), nil)
		}
		head := lw.cur
		head.Cond = c
		body := lw.newBlock()
		post := lw.newBlock()
		exit := lw.newBlock()
		edge(head, body)
		edge(head, exit)
		lw.brk = append(lw.brk, exit)
		lw.cont = append(lw.cont, post)
		lw.contStep = append(lw.contStep, false)
		lw.cur = body
		lw.lowerStmt(st.Body)
		edge(lw.cur, post)
		lw.cur = post
		if st.Post != nil {
			lw.lowerExpr(st.Post)
		}
		lw.cur.Backstep = true
		edge(lw.cur, header)
		lw.brk = lw.brk[:len(lw.brk)-1]
		lw.cont = lw.cont[:len(lw.cont)-1]
		lw.contStep = lw.contStep[:len(lw.contStep)-1]
		lw.cur = exit
	case *minic.Return:
		if st.X != nil {
			r := lw.lowerExpr(st.X)
			lw.f.Rets = append(lw.f.Rets, r)
		}
		lw.cur = lw.newBlock() // unreachable continuation
	case *minic.Break:
		if n := len(lw.brk); n > 0 {
			edge(lw.cur, lw.brk[n-1])
		}
		lw.cur = lw.newBlock()
	case *minic.Continue:
		if n := len(lw.cont); n > 0 {
			if lw.contStep[n-1] {
				lw.cur.Backstep = true
			}
			edge(lw.cur, lw.cont[n-1])
		}
		lw.cur = lw.newBlock()
	}
}

// lowerExpr lowers an expression, returning the instruction producing its
// value. Instructions are emitted in the interpreter's evaluation order.
func (lw *lowerer) lowerExpr(e minic.Expr) *Instr {
	in := lw.lowerExprInner(e)
	if e != nil && in != nil {
		lw.f.ExprInstr[e] = in
	}
	return in
}

func (lw *lowerer) lowerExprInner(e minic.Expr) *Instr {
	switch x := e.(type) {
	case *minic.IntLit:
		return lw.konst(IntConst(x.Value), nil)
	case *minic.CharLit:
		return lw.konst(IntConst(int64(x.Value)), nil)
	case *minic.FloatLit:
		return lw.konst(FloatConst(x.Value), nil)
	case *minic.SizeofType:
		return lw.konst(IntConst(int64(x.Of.Size())), nil)
	case *minic.StrLit:
		return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
	case *minic.Ident:
		if v := lw.trackedVar(x.Sym); v != nil {
			return lw.emit(&Instr{Op: OpLoad, Var: v, Expr: e})
		}
		return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
	case *minic.Unary:
		switch x.Op {
		case "&":
			lw.lowerLValueUses(x.X)
			return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
		case "*":
			p := lw.lowerExpr(x.X)
			return lw.emit(&Instr{Op: OpLoadMem, Args: []*Instr{p}, Expr: e, Trap: true})
		case "-", "!", "~":
			a := lw.lowerExpr(x.X)
			return lw.emit(&Instr{Op: OpUnary, OpStr: x.Op, Args: []*Instr{a}, Expr: e})
		case "++", "--":
			return lw.lowerIncDec(x.X, x.Op, false, e)
		}
		return lw.emit(&Instr{Op: OpEffect, Expr: e})
	case *minic.Postfix:
		return lw.lowerIncDec(x.X, x.Op, true, e)
	case *minic.Binary:
		if x.Op == "&&" || x.Op == "||" {
			l := lw.lowerExpr(x.L)
			lEnd := lw.last()
			r := lw.lowerExpr(x.R)
			return lw.emit(&Instr{Op: OpLogic, OpStr: x.Op, Args: []*Instr{l, r}, Ends: [2]*Instr{lEnd}, Expr: e})
		}
		l := lw.lowerExpr(x.L)
		r := lw.lowerExpr(x.R)
		return lw.emit(&Instr{Op: OpBinary, OpStr: x.Op, Args: []*Instr{l, r}, Expr: e})
	case *minic.Assign:
		if id, ok := x.L.(*minic.Ident); ok {
			if v := lw.trackedVar(id.Sym); v != nil {
				if x.Op == "=" {
					r := lw.lowerExpr(x.R)
					lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{r}, Expr: e, StoreKind: StoreAssign, Assign: x})
					return r
				}
				r := lw.lowerExpr(x.R)
				cur := lw.emit(&Instr{Op: OpLoad, Var: v})
				rv := lw.emit(&Instr{Op: OpBinary, OpStr: x.Op[:len(x.Op)-1], Args: []*Instr{cur, r}, Expr: e})
				lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{rv}, StoreKind: StoreCompound})
				return rv
			}
		}
		// Untracked target: lvalue uses, rhs, opaque memory store.
		lw.lowerLValueUses(x.L)
		r := lw.lowerExpr(x.R)
		eff := lw.emit(&Instr{Op: OpEffect, Args: []*Instr{r}, Expr: e})
		if x.Op == "=" {
			return r
		}
		return eff
	case *minic.Cond:
		c := lw.lowerExpr(x.C)
		cEnd := lw.last()
		t := lw.lowerExpr(x.T)
		tEnd := lw.last()
		f := lw.lowerExpr(x.F)
		return lw.emit(&Instr{Op: OpSelect, Args: []*Instr{c, t, f}, Ends: [2]*Instr{cEnd, tEnd}, Expr: e})
	case *minic.Index:
		idx := lw.lowerExpr(x.Idx)
		base := lw.lowerExpr(x.X)
		return lw.emit(&Instr{Op: OpLoadMem, Args: []*Instr{idx, base}, Expr: e, Trap: true})
	case *minic.Cast:
		a := lw.lowerExpr(x.X)
		return lw.emit(&Instr{Op: OpCast, To: x.To, Args: []*Instr{a}, Expr: e})
	case *minic.Call:
		if x.Name == "__sizeof_var" {
			if len(x.Args) == 1 {
				if id, ok := x.Args[0].(*minic.Ident); ok && id.Sym != nil && id.Sym.Type != nil {
					return lw.konst(IntConst(int64(id.Sym.Type.Size())), nil)
				}
			}
			return lw.emit(&Instr{Op: OpEffect, Expr: e})
		}
		args := make([]*Instr, len(x.Args))
		for i, a := range x.Args {
			args[i] = lw.lowerExpr(a)
		}
		pure := x.Builtin && pureBuiltins[x.Name]
		return lw.emit(&Instr{Op: OpCall, OpStr: x.Name, Args: args, Expr: e, Pure: pure})
	}
	return lw.emit(&Instr{Op: OpEffect, Expr: e})
}

// lowerIncDec lowers ++/-- (prefix when postfix==false). The interpreter
// computes addInt(old, ±1), which matches binary +/- for non-pointer
// values; tracked variables are never pointers.
func (lw *lowerer) lowerIncDec(target minic.Expr, op string, postfix bool, e minic.Expr) *Instr {
	bin := "+"
	if op == "--" {
		bin = "-"
	}
	if id, ok := target.(*minic.Ident); ok {
		if v := lw.trackedVar(id.Sym); v != nil {
			old := lw.emit(&Instr{Op: OpLoad, Var: v})
			one := lw.emit(&Instr{Op: OpConst, Val: IntConst(1)})
			nv := lw.emit(&Instr{Op: OpBinary, OpStr: bin, Args: []*Instr{old, one}, Expr: e})
			lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{nv}, StoreKind: StoreCompound})
			if postfix {
				return old
			}
			return nv
		}
	}
	lw.lowerLValueUses(target)
	return lw.emit(&Instr{Op: OpEffect, Expr: e})
}

// lowerLValueUses lowers the value reads inside an lvalue expression (index
// expressions, pointer operands) without modeling the location itself.
func (lw *lowerer) lowerLValueUses(e minic.Expr) {
	switch x := e.(type) {
	case *minic.Ident:
	case *minic.Index:
		lw.lowerExpr(x.Idx)
		lw.lowerExpr(x.X)
	case *minic.Unary:
		if x.Op == "*" {
			lw.lowerExpr(x.X)
		}
	}
}

// pureBuiltins are math builtins with no side effects and no error paths
// (they map NaN/domain issues to NaN, never to interpreter errors). Their
// constant folding must call the identical Go math functions the
// interpreter stdlib uses.
var pureBuiltins = map[string]bool{
	"sqrt": true, "fabs": true, "exp": true, "log": true, "log2": true,
	"floor": true, "ceil": true, "erf": true, "sin": true, "cos": true,
	"pow": true, "fmin": true, "fmax": true, "abs": true,
	"isdigit": true, "isalpha": true, "isalnum": true, "isspace": true,
	"tolower": true, "toupper": true,
}
